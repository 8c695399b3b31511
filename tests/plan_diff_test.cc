#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/hash.h"
#include "core/executor.h"
#include "data/io.h"
#include "ops/registry.h"
#include "workload/generator.h"

// Differential plan-equivalence test: every shipped recipe must produce
// byte-identical output whether it runs naively (recipe order, no fusion)
// or fully optimized (fusion + reorder, effect-verified). This is the
// end-to-end proof that the plan transformations VerifyPlan licenses are
// semantics-preserving — any divergence is either an effect signature
// lying about an OP or a hole in the verifier.

#ifndef DJ_REPO_DIR
#define DJ_REPO_DIR "."
#endif

namespace dj {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> RecipePaths() {
  std::vector<std::string> out;
  fs::path dir = fs::path(DJ_REPO_DIR) / "configs" / "recipes";
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".yaml") {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

data::Dataset MixedCorpus() {
  workload::CorpusOptions web;
  web.style = workload::Style::kWeb;
  web.num_docs = 40;
  web.exact_dup_rate = 0.2;
  web.spam_rate = 0.2;
  web.seed = 1;
  data::Dataset ds = workload::CorpusGenerator(web).Generate();

  workload::CorpusOptions arxiv;
  arxiv.style = workload::Style::kArxiv;
  arxiv.num_docs = 10;
  arxiv.seed = 2;
  ds.Concat(workload::CorpusGenerator(arxiv).Generate());

  workload::CorpusOptions code;
  code.style = workload::Style::kCode;
  code.num_docs = 10;
  code.seed = 3;
  ds.Concat(workload::CorpusGenerator(code).Generate());

  workload::InstructionOptions sft;
  sft.num_samples = 40;
  sft.low_quality_rate = 0.3;
  sft.dup_rate = 0.2;
  sft.seed = 5;
  ds.Concat(workload::GenerateInstructionDataset(sft));
  return ds;
}

// Runs `recipe` with the given plan flags on a fresh OP chain (dedup OPs
// carry fingerprint state across runs, so OPs must never be reused).
data::Dataset RunWithPlan(const core::Recipe& recipe, bool fusion,
                          bool reorder) {
  auto ops = core::BuildOps(recipe, ops::OpRegistry::Global());
  EXPECT_TRUE(ops.ok()) << ops.status().ToString();
  core::Executor::Options options =
      core::Executor::OptionsFromRecipe(recipe);
  options.num_workers = 1;
  options.use_cache = false;
  options.use_checkpoint = false;
  options.op_fusion = fusion;
  options.op_reorder = reorder;
  core::Executor executor(options);
  core::RunReport report;
  auto result = executor.Run(MixedCorpus(), ops.value(), &report);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value() : data::Dataset{};
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class PlanDiffTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PlanDiffTest, OptimizedPlanIsByteIdenticalToNaive) {
  auto recipe = core::Recipe::FromFile(GetParam());
  ASSERT_TRUE(recipe.ok()) << recipe.status().ToString();

  data::Dataset naive = RunWithPlan(recipe.value(), false, false);
  data::Dataset optimized = RunWithPlan(recipe.value(), true, true);

  // In-memory binary container bytes (covers every column incl. stats).
  EXPECT_EQ(data::SerializeDataset(naive), data::SerializeDataset(optimized))
      << GetParam() << ": optimized plan changed the dataset bytes";

  // Exported JSONL bytes, the artifact users actually diff.
  std::string dir = ::testing::TempDir() + "/dj_plan_diff";
  fs::create_directories(dir);
  std::string stem = fs::path(GetParam()).stem().string();
  std::string naive_path = dir + "/" + stem + ".naive.jsonl";
  std::string opt_path = dir + "/" + stem + ".opt.jsonl";
  ASSERT_TRUE(data::ExportDataset(naive, naive_path).ok());
  ASSERT_TRUE(data::ExportDataset(optimized, opt_path).ok());
  EXPECT_EQ(ReadFileBytes(naive_path), ReadFileBytes(opt_path))
      << GetParam() << ": exported JSONL differs between plans";
}

// Golden digest of the shipped web recipe's JSONL export over a seeded
// 2k-doc web corpus (the jobbench "web" corpus shape). The constant was
// recorded before the flat-table rewrite of the character-repetition and
// language-id kernels, so it pins that the rewrite changed no stat byte;
// it must hold at np=4 with the optimized plan and at np=1 in recipe order.
constexpr char kWebRefineGoldenDigest[] = "864c325b88f436278928ef0b5b136ad2";

data::Dataset WebCorpus2k() {
  workload::CorpusOptions web;
  web.style = workload::Style::kWeb;
  web.num_docs = 2000;
  web.mean_words = 180;
  web.exact_dup_rate = 0.05;
  web.near_dup_rate = 0.05;
  web.boilerplate_rate = 0.2;
  web.spam_rate = 0.05;
  web.noise_rate = 0.1;
  web.foreign_rate = 0.05;
  web.short_doc_rate = 0.03;
  web.seed = 7;
  return workload::CorpusGenerator(web).Generate();
}

std::string WebRefineDigest(const core::Recipe& recipe, int workers,
                            bool optimized) {
  auto ops = core::BuildOps(recipe, ops::OpRegistry::Global());
  EXPECT_TRUE(ops.ok()) << ops.status().ToString();
  if (!ops.ok()) return "";
  core::Executor::Options options = core::Executor::OptionsFromRecipe(recipe);
  options.num_workers = workers;
  options.use_cache = false;
  options.use_checkpoint = false;
  options.op_fusion = optimized;
  options.op_reorder = optimized;
  core::Executor executor(options);
  auto result = executor.Run(WebCorpus2k(), ops.value());
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return "";
  return FingerprintHex(Fingerprint(data::ToJsonl(result.value())));
}

TEST(WebRefineGoldenTest, ExportMatchesRecordedDigest) {
  auto recipe = core::Recipe::FromFile(
      std::string(DJ_REPO_DIR) + "/configs/recipes/pretrain_general_en.yaml");
  ASSERT_TRUE(recipe.ok()) << recipe.status().ToString();
  EXPECT_EQ(WebRefineDigest(recipe.value(), 4, true), kWebRefineGoldenDigest)
      << "np=4, fusion + reorder";
  EXPECT_EQ(WebRefineDigest(recipe.value(), 1, false), kWebRefineGoldenDigest)
      << "np=1, recipe order";
}

INSTANTIATE_TEST_SUITE_P(
    AllShippedRecipes, PlanDiffTest, ::testing::ValuesIn(RecipePaths()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = fs::path(info.param).stem().string();
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace dj
