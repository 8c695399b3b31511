// jb_job: the measured program of the recipe-job benchmark.
//
// A job is what dj_process does with a recipe, done with the same public
// calls so each layer can be timed from outside: ReadFile -> ParseJsonl
// (pooled) -> core::Executor::Run -> export (ToJsonl, or SerializeDataset
// then CompressFrame) -> WriteFile. Every job re-reads its export and
// compares the digest with the reference (a serial run: np=1, no fusion or
// reorder, no cache, no checkpoint).
//
// Usage:
//   jb_job --mode prepare|setup|timed|traced --recipe R --input I --work DIR
//          --export jsonl|djlz [--cache-dir D] [--checkpoint-dir D]
//          [--cold] [--fill-cache] [--digest HEX] [--seconds S]
//          [--flip-byte] [--trace-out F] [--allow-simd-env]
//
// --cold empties the cache and checkpoint dirs before every job (outside
// the timed region); --fill-cache fills the cache once before timing.
//
// prepare  computes the reference digest (and, with --fill-cache, fills the
//          cache with one run of the cached pipeline); prints it as JSON.
// setup    set-up only: prints the time until the first job could start.
// timed    set-up, the first job, then steady jobs until --seconds have
//          passed (at least one); prints set-up time, per-job wall and CPU,
//          peak RSS, failures.
//          Tracing is off. Set-up time counts from process start (see
//          g_start_ns), so static initialisation counts too.
// traced   reference run, then rounds of untraced / traced / sinks-attached
//          jobs and standalone layer probes, all recorded as spans kept in
//          memory and written as Chrome trace JSON to --trace-out.
//
// Jobs run at np=4 (kNp); the reference at np=1. A mismatching export is
// kept, with the reference export, in <work>/mismatch/.
//
// Exits 3 when the environment would distort timings (see GuardEnvironment)
// and 1 when any job fails or mismatches the reference.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/file_util.h"
#include "common/hash.h"
#include "common/resource_monitor.h"
#include "common/swar.h"
#include "common/thread_pool.h"
#include "compress/djlz.h"
#include "core/cache_manager.h"
#include "core/checkpoint.h"
#include "core/executor.h"
#include "core/recipe.h"
#include "data/io.h"
#include "json/value.h"
#include "json/writer.h"
#include "lint/linter.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "ops/registry.h"

namespace {

using dj::Status;
using dj::json::Object;
using dj::json::Value;

int64_t MonotonicNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double NowS() { return static_cast<double>(MonotonicNs()) * 1e-9; }

constexpr int kNp = 4;

// Process start for setup_s: stamped from .preinit_array, which runs before
// the static initialisers of this program and of every library it loads
// (the OP and metric registries among them).
int64_t g_start_ns = 0;
void StampStart() { g_start_ns = MonotonicNs(); }
[[gnu::section(".preinit_array"), gnu::used]] void (*const kStampStart)() =
    &StampStart;

double ProcessCpuS() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

Value DoubleArray(const std::vector<double>& v) {
  dj::json::Array a;
  for (double x : v) a.emplace_back(x);
  return Value(std::move(a));
}

// ------------------------------------------------------------------ spans --

// In-memory span recorder. Spans nest through an open-span stack; every
// span carries the id of the job (or probe group) it belongs to. Written
// once, at the end, as Chrome trace-event JSON.
class Trace {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int id = 0;
    int parent = 0;
    int job = 0;
    Object args;
  };

  int Begin(std::string name) {
    Span s;
    s.name = std::move(name);
    s.start = NowS();
    s.id = static_cast<int>(spans_.size()) + 1;
    s.parent = open_.empty() ? 0 : open_.back();
    s.job = job_;
    spans_.push_back(std::move(s));
    open_.push_back(spans_.back().id);
    return spans_.back().id;
  }
  void End(int id) {
    spans_[id - 1].end = NowS();
    open_.erase(std::find(open_.begin(), open_.end(), id));
  }
  Object& Args(int id) { return spans_[id - 1].args; }
  void SetJob(int job) { job_ = job; }

  std::string ToChromeJson(double origin) const {
    dj::json::Array events;
    for (const Span& s : spans_) {
      Object e;
      e.Set("name", s.name);
      e.Set("ph", "X");
      e.Set("ts", (s.start - origin) * 1e6);
      e.Set("dur", (s.end - s.start) * 1e6);
      e.Set("pid", 1);
      e.Set("tid", 1);
      Object args = s.args;
      args.Set("id", s.id);
      args.Set("parent", s.parent);
      args.Set("job", s.job);
      e.Set("args", Value(std::move(args)));
      events.emplace_back(std::move(e));
    }
    Object root;
    root.Set("traceEvents", Value(std::move(events)));
    root.Set("displayTimeUnit", "ms");
    return dj::json::Write(Value(std::move(root)));
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int job_ = 0;
};

// RAII span; a no-op when tracing is off.
class Scope {
 public:
  Scope(Trace* trace, std::string name) : trace_(trace) {
    if (trace_ != nullptr) id_ = trace_->Begin(std::move(name));
  }
  ~Scope() { Close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void Close() {
    if (trace_ != nullptr && id_ != 0) trace_->End(id_);
    id_ = 0;
  }
  void Arg(const std::string& key, Value v) {
    if (trace_ != nullptr && id_ != 0) trace_->Args(id_).Set(key, std::move(v));
  }

 private:
  Trace* trace_;
  int id_ = 0;
};

// ------------------------------------------------------------ arguments --

struct Args {
  std::string mode;
  std::string recipe;
  std::string input;
  std::string work;
  std::string export_kind = "jsonl";
  std::string cache_dir;
  std::string checkpoint_dir;
  bool fill_cache = false;
  bool cold = false;
  std::string digest;
  double seconds = 10;
  bool flip_byte = false;
  std::string trace_out;
  bool allow_simd_env = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (flag == "--mode") {
      a->mode = value();
    } else if (flag == "--recipe") {
      a->recipe = value();
    } else if (flag == "--input") {
      a->input = value();
    } else if (flag == "--work") {
      a->work = value();
    } else if (flag == "--export") {
      a->export_kind = value();
    } else if (flag == "--cache-dir") {
      a->cache_dir = value();
    } else if (flag == "--checkpoint-dir") {
      a->checkpoint_dir = value();
    } else if (flag == "--fill-cache") {
      a->fill_cache = true;
    } else if (flag == "--cold") {
      a->cold = true;
    } else if (flag == "--digest") {
      a->digest = value();
    } else if (flag == "--seconds") {
      a->seconds = std::atof(value().c_str());
    } else if (flag == "--flip-byte") {
      a->flip_byte = true;
    } else if (flag == "--trace-out") {
      a->trace_out = value();
    } else if (flag == "--allow-simd-env") {
      a->allow_simd_env = true;
    } else {
      std::fprintf(stderr, "jb_job: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  bool mode_ok = a->mode == "prepare" || a->mode == "setup" ||
                 a->mode == "timed" || a->mode == "traced";
  bool export_ok = a->export_kind == "jsonl" || a->export_kind == "djlz";
  return mode_ok && export_ok && !a->recipe.empty() && !a->input.empty() &&
         !a->work.empty();
}

// Timings are only comparable from a Release build with no fault injection,
// schedule perturbation or watchdog armed, and on the default kernel level
// (the DJ_FORCE_SCALAR sensitivity check opts in with --allow-simd-env).
bool GuardEnvironment(const Args& args) {
  bool ok = true;
  for (const char* var : {"DJ_FAULTS", "DJ_SCHED", "DJ_WATCHDOG"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "jb_job: refusing to time with %s set\n", var);
      ok = false;
    }
  }
  if (!args.allow_simd_env) {
    for (const char* var : {"DJ_FORCE_SCALAR", "DJ_SIMD"}) {
      if (std::getenv(var) != nullptr) {
        std::fprintf(stderr, "jb_job: refusing to time with %s set\n", var);
        ok = false;
      }
    }
  }
  if (std::string(JB_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "jb_job: refusing to time a %s build\n",
                 JB_BUILD_TYPE);
    ok = false;
  }
  return ok;
}

// --------------------------------------------------------------- pipeline --

// Everything dj_process builds before it touches data.
struct Pipeline {
  dj::core::Recipe recipe;
  std::vector<std::unique_ptr<dj::ops::Op>> ops;
  dj::core::Executor::Options options;
  std::unique_ptr<dj::ThreadPool> io_pool;  // null at np=1
  bool djlz = false;
  std::string output;
  bool clear_before_job = false;  // cold cache/checkpoint dirs per job
};

// Builds the timed pipeline, or with `reference` the serial one whose export
// defines correct output: np=1, fusion and reorder off, no cache or
// checkpoint.
dj::Result<Pipeline> Setup(const Args& args, bool reference, bool cached,
                           Trace* trace = nullptr) {
  Pipeline p;
  {
    Scope s(trace, "Recipe::FromFile");
    DJ_ASSIGN_OR_RETURN(p.recipe, dj::core::Recipe::FromFile(args.recipe));
  }
  p.recipe.dataset_path = args.input;
  p.djlz = args.export_kind == "djlz";
  p.output = args.work + (reference ? "/reference" : "/out") +
             (p.djlz ? ".djds.djlz" : ".jsonl");
  p.recipe.export_path = p.output;
  if (reference) {
    p.recipe.num_workers = 1;
    p.recipe.op_fusion = false;
    p.recipe.op_reorder = false;
    p.recipe.use_cache = false;
    p.recipe.use_checkpoint = false;
  } else {
    p.recipe.num_workers = kNp;
    if (cached) {
      p.recipe.use_cache = true;
      p.recipe.cache_dir = args.cache_dir;
    }
    if (!args.checkpoint_dir.empty()) {
      p.recipe.use_checkpoint = true;
      p.recipe.checkpoint_dir = args.checkpoint_dir;
    }
  }
  {
    Scope s(trace, "RecipeLinter::Lint");
    dj::lint::RecipeLinter linter(dj::ops::OpRegistry::Global());
    dj::lint::LintReport lint = linter.Lint(p.recipe);
    if (!lint.ok()) {
      return Status::InvalidArgument("recipe lint errors:\n" +
                                     lint.ToString());
    }
  }
  {
    Scope s(trace, "BuildOps");
    DJ_ASSIGN_OR_RETURN(
        p.ops, dj::core::BuildOps(p.recipe, dj::ops::OpRegistry::Global()));
  }
  p.options = dj::core::Executor::OptionsFromRecipe(p.recipe);
  p.options.checkpoint_every_n_units = 1;
  if (p.recipe.num_workers > 1) {
    Scope s(trace, "ThreadPool");
    p.io_pool = std::make_unique<dj::ThreadPool>(
        static_cast<size_t>(p.recipe.num_workers));
  }
  p.clear_before_job = !reference && args.cold;
  return p;
}

struct JobResult {
  Status status;
  double wall_s = 0;
  double cpu_s = 0;
  std::string digest;
  // Kept for the traced run's probes.
  dj::data::Dataset result;
  dj::core::RunReport report;
};

std::string Digest(const std::string& bytes) {
  return dj::FingerprintHex(dj::Fingerprint(bytes));
}

// One job. Spans go around each public call when `trace` is set; `sinks`
// attaches the executor's own metrics and span sinks (off in timed jobs).
JobResult RunJob(const Pipeline& p, Trace* trace, bool sinks, bool flip,
                 bool keep) {
  JobResult r;
  if (p.clear_before_job) {
    if (p.recipe.use_cache) {
      dj::core::CacheManager(p.recipe.cache_dir, false).Clear();
    }
    if (p.recipe.use_checkpoint) {
      dj::core::CheckpointManager(p.recipe.checkpoint_dir).Clear();
    }
  }
  dj::ThreadPool* pool = p.io_pool.get();
  const int threads = pool != nullptr ? static_cast<int>(pool->num_threads())
                                      : 1;
  dj::obs::MetricsRegistry metrics;
  dj::obs::SpanRecorder recorder;
  dj::core::Executor::Options options = p.options;
  if (sinks) {
    options.metrics = &metrics;
    options.spans = &recorder;
  }

  const double t0 = NowS();
  const double c0 = ProcessCpuS();
  Scope job(trace, "job");
  auto finish = [&](Status s) {
    job.Close();
    r.wall_s = NowS() - t0;
    r.cpu_s = ProcessCpuS() - c0;
    r.status = std::move(s);
  };

  // The raw input is freed as soon as it is parsed, as dj_process's
  // loader does.
  dj::data::Dataset dataset;
  {
    std::string content;
    {
      Scope span(trace, "ReadFile");
      auto read = dj::data::ReadFile(p.recipe.dataset_path);
      if (!read.ok()) {
        finish(read.status());
        return r;
      }
      content = std::move(read).value();
      span.Arg("bytes", static_cast<uint64_t>(content.size()));
    }
    Scope span(trace, "ParseJsonl");
    auto parsed = dj::data::ParseJsonl(content, pool);
    if (!parsed.ok()) {
      finish(parsed.status());
      return r;
    }
    dataset = std::move(parsed).value();
    span.Arg("threads", threads);
    span.Arg("rows", static_cast<uint64_t>(dataset.NumRows()));
  }
  if (trace != nullptr) {
    Scope span(trace, "Dataset::ApproxMemoryBytes");
    span.Arg("bytes", dataset.ApproxMemoryBytes());
  }
  dj::data::Dataset result;
  {
    Scope span(trace, "Executor::Run");
    const double run_c0 = ProcessCpuS();
    dj::core::Executor executor(options);
    auto run = executor.Run(std::move(dataset), p.ops, &r.report);
    if (!run.ok()) {
      finish(run.status());
      return r;
    }
    result = std::move(run).value();
    span.Arg("cpu_s", ProcessCpuS() - run_c0);
    span.Arg("np", p.options.num_workers);
    span.Arg("plan_swaps", static_cast<uint64_t>(r.report.plan_swaps));
    span.Arg("cache_hits", static_cast<uint64_t>(r.report.cache_hits));
    if (trace != nullptr) {
      dj::json::Array units;
      for (const dj::core::OpReport& u : r.report.op_reports) {
        Object o;
        o.Set("name", u.name);
        o.Set("kind", u.kind);
        o.Set("rows_in", static_cast<uint64_t>(u.rows_in));
        o.Set("rows_out", static_cast<uint64_t>(u.rows_out));
        o.Set("seconds", u.seconds);
        o.Set("cache_hit", u.cache_hit);
        units.emplace_back(std::move(o));
      }
      span.Arg("units", Value(std::move(units)));
    }
  }
  {
    Scope span(trace, "export");
    std::string bytes;
    if (p.djlz) {
      std::string blob;
      {
        Scope s(trace, "SerializeDataset");
        s.Arg("threads", threads);
        blob = dj::data::SerializeDataset(result, pool);
      }
      Scope s(trace, "CompressFrame");
      s.Arg("threads", threads);
      bytes = dj::compress::CompressFrame(blob, pool);
    } else {
      Scope s(trace, "ToJsonl");
      s.Arg("threads", threads);
      bytes = dj::data::ToJsonl(result, pool);
    }
    Scope s(trace, "WriteFile");
    s.Arg("bytes", static_cast<uint64_t>(bytes.size()));
    if (Status w = dj::data::WriteFile(p.output, bytes); !w.ok()) {
      finish(w);
      return r;
    }
  }
  finish(Status::Ok());

  // Verification, outside the timed region: digest what reached the disk.
  auto written = dj::ReadFileToString(p.output);
  if (!written.ok()) {
    r.status = written.status();
    return r;
  }
  std::string bytes = std::move(written).value();
  if (flip && !bytes.empty()) bytes[bytes.size() / 2] ^= 0x01;
  r.digest = Digest(bytes);
  if (keep) r.result = std::move(result);
  return r;
}

Object HostRecord() {
  Object host;
  host.Set("hardware_threads",
           static_cast<int>(std::thread::hardware_concurrency()));
  host.Set("simd_level", dj::swar::ActiveLevelMetric());
  host.Set("simd_level_name",
           dj::swar::LevelName(dj::swar::ActiveLevel()));
  host.Set("np", kNp);
  host.Set("build_type", JB_BUILD_TYPE);
  return host;
}

// A job counts as failed when it returns a non-OK Status or its export
// differs from the reference digest. A mismatching export and the
// reference export are kept in <work>/mismatch/ for inspection.
bool JobOk(const JobResult& r, const std::string& reference,
           const Pipeline& p, const Args& args) {
  if (!r.status.ok()) {
    std::fprintf(stderr, "jb_job: job failed: %s\n",
                 r.status.ToString().c_str());
    return false;
  }
  if (r.digest != reference) {
    std::fprintf(stderr, "jb_job: export digest %s != reference %s\n",
                 r.digest.c_str(), reference.c_str());
    if (!args.flip_byte) {
      const std::string dir = args.work + "/mismatch";
      const std::string name = p.output.substr(p.output.rfind('/') + 1);
      const std::string kept = dir + "/" + r.digest + "-" + name;
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
      std::filesystem::copy_file(
          args.work + "/reference" + name.substr(name.find('.')),
          dir + "/" + reference + "-reference" + name.substr(name.find('.')),
          std::filesystem::copy_options::skip_existing, ec);
      std::filesystem::rename(p.output, kept, ec);
      if (!ec) {
        std::fprintf(stderr, "jb_job: mismatching export kept as %s\n",
                     kept.c_str());
      }
    }
    return false;
  }
  return true;
}

void Print(Object out) {
  std::printf("%s\n", dj::json::Write(Value(std::move(out))).c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------------ modes --

int Prepare(const Args& args) {
  auto ref = Setup(args, /*reference=*/true, /*cached=*/false);
  if (!ref.ok()) {
    std::fprintf(stderr, "jb_job: %s\n", ref.status().ToString().c_str());
    return 1;
  }
  JobResult r = RunJob(ref.value(), nullptr, false, false, false);
  if (!r.status.ok()) {
    std::fprintf(stderr, "jb_job: reference failed: %s\n",
                 r.status.ToString().c_str());
    return 1;
  }
  Object out;
  out.Set("digest", r.digest);
  out.Set("run_s", r.report.total_seconds);
  out.Set("rows_out", static_cast<uint64_t>(r.report.rows_out));
  if (args.fill_cache) {
    auto cached = Setup(args, /*reference=*/false, /*cached=*/true);
    if (!cached.ok()) {
      std::fprintf(stderr, "jb_job: %s\n",
                   cached.status().ToString().c_str());
      return 1;
    }
    dj::core::CacheManager(args.cache_dir, false).Clear();
    JobResult fill = RunJob(cached.value(), nullptr, false, false, false);
    if (!JobOk(fill, r.digest, cached.value(), args)) return 1;
    out.Set("cache_bytes",
            dj::core::CacheManager(args.cache_dir, false).TotalBytes());
  }
  Print(std::move(out));
  return 0;
}

int Timed(const Args& args) {
  auto setup = Setup(args, /*reference=*/false,
                     /*cached=*/!args.cache_dir.empty());
  const int64_t ready_ns = MonotonicNs();
  if (!setup.ok()) {
    std::fprintf(stderr, "jb_job: %s\n", setup.status().ToString().c_str());
    return 1;
  }
  const Pipeline& p = setup.value();
  const double setup_s = static_cast<double>(ready_ns - g_start_ns) * 1e-9;
  if (args.mode == "setup") {
    Object out;
    out.Set("setup_s", setup_s);
    Print(std::move(out));
    return 0;
  }

  std::vector<double> job_s;
  std::vector<double> cpu_s;
  size_t attempted = 0;
  size_t failed = 0;
  JobResult first = RunJob(p, nullptr, false, false, false);
  ++attempted;
  if (!JobOk(first, args.digest, p, args)) ++failed;
  const double deadline = NowS() + args.seconds;
  while (job_s.empty() || NowS() < deadline) {
    // The byte flip (self-test only) corrupts the first steady export.
    JobResult r = RunJob(p, nullptr, false, args.flip_byte && job_s.empty(),
                         false);
    ++attempted;
    if (!JobOk(r, args.digest, p, args)) ++failed;
    job_s.push_back(r.wall_s);
    cpu_s.push_back(r.cpu_s);
  }

  Object out;
  out.Set("host", Value(HostRecord()));
  out.Set("setup_s", setup_s);
  out.Set("first_job_s", first.wall_s);
  out.Set("job_s", DoubleArray(job_s));
  out.Set("cpu_s", DoubleArray(cpu_s));
  out.Set("peak_rss_bytes", dj::ResourceMonitor::CurrentPeakRssBytes());
  out.Set("attempted", static_cast<uint64_t>(attempted));
  out.Set("failed", static_cast<uint64_t>(failed));
  Print(std::move(out));
  return failed == 0 ? 0 : 1;
}

// Standalone probes on the job's own datasets: each public call of the
// data, compress and core layers that a job reaches only inside
// Executor::Run (cache, checkpoint) or only on one workload (djlz, DJDS),
// timed `reps` times so every workload reports every layer.
Status Probes(const Args& args, const Pipeline& p, const JobResult& job,
              Trace* trace, int reps) {
  dj::ThreadPool* pool = p.io_pool.get();
  const int threads = pool != nullptr ? static_cast<int>(pool->num_threads())
                                      : 1;
  Scope group(trace, "probes");
  DJ_ASSIGN_OR_RETURN(std::string content,
                      dj::data::ReadFile(p.recipe.dataset_path));
  dj::data::Dataset input;
  for (int rep = 0; rep < reps; ++rep) {
    Scope s(trace, "ParseJsonl");
    s.Arg("threads", 1);
    DJ_ASSIGN_OR_RETURN(input, dj::data::ParseJsonl(content, nullptr));
  }
  for (int rep = 0; rep < reps; ++rep) {
    Scope s(trace, p.djlz ? "SerializeDataset" : "ToJsonl");
    s.Arg("threads", 1);
    s.Arg("of", "result");
    if (p.djlz) {
      dj::data::SerializeDataset(job.result, nullptr);
    } else {
      dj::data::ToJsonl(job.result, nullptr);
    }
  }
  // The codec probes run on the job's input dataset: the largest dataset
  // every workload holds, and the size of what the cache and checkpoint
  // layers store after a row-local unit.
  std::string blob;
  {
    Scope s(trace, "SerializeDataset");
    s.Arg("threads", threads);
    s.Arg("of", "input");
    blob = dj::data::SerializeDataset(input, pool);
  }
  std::string frame;
  for (int rep = 0; rep < reps; ++rep) {
    for (dj::ThreadPool* pp : {pool, static_cast<dj::ThreadPool*>(nullptr)}) {
      Scope s(trace, "CompressFrame");
      s.Arg("threads", pp != nullptr ? threads : 1);
      s.Arg("in_bytes", static_cast<uint64_t>(blob.size()));
      frame = dj::compress::CompressFrame(blob, pp);
      s.Arg("out_bytes", static_cast<uint64_t>(frame.size()));
    }
    {
      Scope s(trace, "DecompressFrame");
      s.Arg("threads", threads);
      DJ_RETURN_IF_ERROR(dj::compress::DecompressFrame(frame, pool).status());
    }
    {
      Scope s(trace, "DeserializeDataset");
      s.Arg("threads", threads);
      DJ_RETURN_IF_ERROR(dj::data::DeserializeDataset(blob, pool).status());
    }
  }

  dj::core::CacheManager cache(args.work + "/probe_cache",
                               /*compression=*/true);
  cache.SetPool(pool);
  dj::core::CheckpointManager ckpt(args.work + "/probe_ckpt");
  ckpt.SetPool(pool);
  dj::core::CheckpointState state;
  state.next_op_index = 1;
  state.pipeline_key = 42;
  state.dataset = input;
  for (int rep = 0; rep < reps; ++rep) {
    cache.Clear();
    ckpt.Clear();
    {
      Scope s(trace, "CacheManager::Store");
      DJ_RETURN_IF_ERROR(cache.Store(1, input));
    }
    {
      Scope s(trace, "CacheManager::TotalBytes");
      s.Arg("bytes", cache.TotalBytes());
    }
    {
      Scope s(trace, "CacheManager::Load");
      DJ_RETURN_IF_ERROR(cache.Load(1).status());
    }
    {
      Scope s(trace, "CheckpointManager::Save");
      DJ_RETURN_IF_ERROR(ckpt.Save(state));
    }
    {
      Scope s(trace, "CheckpointManager::LoadLatest");
      DJ_RETURN_IF_ERROR(ckpt.LoadLatest().status());
    }
  }
  cache.Clear();
  ckpt.Clear();
  return Status::Ok();
}

int Traced(const Args& args) {
  const double origin = NowS();
  Trace trace;
  int job_id = 0;
  auto next_job = [&]() { trace.SetJob(++job_id); };
  size_t attempted = 0;
  size_t failed = 0;

  // Reference first: its digest checks every later job.
  auto ref = Setup(args, /*reference=*/true, /*cached=*/false);
  if (!ref.ok()) {
    std::fprintf(stderr, "jb_job: %s\n", ref.status().ToString().c_str());
    return 1;
  }
  next_job();
  JobResult reference;
  {
    Scope s(&trace, "reference");
    reference = RunJob(ref.value(), &trace, false, false, false);
  }
  if (!reference.status.ok()) {
    std::fprintf(stderr, "jb_job: reference failed: %s\n",
                 reference.status.ToString().c_str());
    return 1;
  }

  const bool cached = !args.cache_dir.empty();
  next_job();
  auto setup = [&] {
    Scope s(&trace, "setup");
    return Setup(args, /*reference=*/false, cached, &trace);
  }();
  if (!setup.ok()) {
    std::fprintf(stderr, "jb_job: %s\n", setup.status().ToString().c_str());
    return 1;
  }
  const Pipeline& p = setup.value();
  if (args.fill_cache) {
    dj::core::CacheManager(args.cache_dir, false).Clear();
    next_job();
    Scope s(&trace, "fill");
    JobResult fill = RunJob(p, nullptr, false, false, false);
    ++attempted;
    if (!JobOk(fill, reference.digest, p, args)) ++failed;
  }

  // First job (lazy init), then rounds of untraced / traced / sinks jobs so
  // drift over the run affects the three kinds alike.
  JobResult last;
  auto job = [&](const char* kind, bool traced, bool sinks) {
    next_job();
    Scope s(&trace, kind);
    JobResult r = RunJob(p, traced ? &trace : nullptr, sinks, false, traced);
    s.Arg("wall_s", r.wall_s);
    s.Close();
    ++attempted;
    if (!JobOk(r, reference.digest, p, args)) ++failed;
    if (traced) last = std::move(r);
  };
  job("first", false, false);
  const double deadline = NowS() + args.seconds;
  int rounds = 0;
  while (rounds < 2 || NowS() < deadline) {
    job("untraced", false, false);
    job("traced", true, false);
    job("sinks", false, true);
    ++rounds;
  }

  next_job();
  if (Status s = Probes(args, p, last, &trace, 3); !s.ok()) {
    std::fprintf(stderr, "jb_job: probe failed: %s\n", s.ToString().c_str());
    ++failed;
  }

  if (auto s = dj::WriteStringToFile(args.trace_out,
                                     trace.ToChromeJson(origin));
      !s.ok()) {
    std::fprintf(stderr, "jb_job: %s\n", s.ToString().c_str());
    return 1;
  }
  Object out;
  out.Set("host", Value(HostRecord()));
  out.Set("attempted", static_cast<uint64_t>(attempted));
  out.Set("failed", static_cast<uint64_t>(failed));
  Print(std::move(out));
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: jb_job --mode prepare|setup|timed|traced --recipe R "
                 "--input I --work DIR --export jsonl|djlz [options]\n");
    return 2;
  }
  if (!GuardEnvironment(args)) return 3;
  if (args.mode == "prepare") return Prepare(args);
  if (args.mode == "setup" || args.mode == "timed") {
    return Timed(args);
  }
  if (args.trace_out.empty()) {
    std::fprintf(stderr, "jb_job: --mode traced needs --trace-out\n");
    return 2;
  }
  return Traced(args);
}
