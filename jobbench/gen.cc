// jb_gen: seeded input generator for the recipe-job benchmark.
//
// Usage: jb_gen --corpus web|dedup|light --seed N [--scale F] --out in.jsonl
//
// Runs as its own process so the measured program never holds the
// generator's memory and receives only the generated file. The same
// (corpus, seed, scale) always writes the same bytes. Prints one JSON line
// {"rows": R, "bytes": B} describing what it wrote.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "data/io.h"
#include "workload/generator.h"

namespace {

// Corpus shapes. Each fixes the properties the recipes' OPs depend on:
// document length, and the duplicate, boilerplate, spam, noise and
// foreign-language rates.
bool CorpusFor(const std::string& name, dj::workload::CorpusOptions* o) {
  o->style = dj::workload::Style::kWeb;
  o->mean_words = 180;
  if (name == "web") {
    // Mixed-quality web pages for the general pre-training recipe: every
    // cleaning mapper and quality filter has something to remove.
    o->num_docs = 20000;
    o->exact_dup_rate = 0.05;
    o->near_dup_rate = 0.05;
    o->boilerplate_rate = 0.2;
    o->spam_rate = 0.05;
    o->noise_rate = 0.1;
    o->foreign_rate = 0.05;
    o->short_doc_rate = 0.03;
    return true;
  }
  if (name == "dedup") {
    // Heavy exact and near duplication for the dedup-only recipe.
    o->num_docs = 20000;
    o->exact_dup_rate = 0.12;
    o->near_dup_rate = 0.12;
    o->boilerplate_rate = 0.3;
    return true;
  }
  if (name == "light") {
    // Larger, mostly clean corpus for the cache/checkpoint pair: the
    // row-local recipe keeps most rows, so cache blobs stay large.
    o->num_docs = 40000;
    o->exact_dup_rate = 0.03;
    o->short_doc_rate = 0.02;
    o->noise_rate = 0.05;
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string corpus;
  std::string out;
  uint64_t seed = 0;
  double scale = 1.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--corpus") {
      corpus = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--scale") {
      scale = std::atof(value.c_str());
    } else if (flag == "--out") {
      out = value;
    } else {
      std::fprintf(stderr, "jb_gen: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  dj::workload::CorpusOptions options;
  if (out.empty() || !CorpusFor(corpus, &options) || !(scale > 0)) {
    std::fprintf(stderr,
                 "usage: jb_gen --corpus web|dedup|light --seed N "
                 "[--scale F] --out in.jsonl\n");
    return 2;
  }
  options.seed = seed;
  options.num_docs = std::max<size_t>(
      50, static_cast<size_t>(static_cast<double>(options.num_docs) * scale));

  dj::data::Dataset dataset =
      dj::workload::CorpusGenerator(options).Generate();
  std::string content = dj::data::ToJsonl(dataset);
  if (auto s = dj::data::WriteFile(out, content); !s.ok()) {
    std::fprintf(stderr, "jb_gen: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("{\"rows\": %zu, \"bytes\": %zu}\n", dataset.NumRows(),
              content.size());
  return 0;
}
