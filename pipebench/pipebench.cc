// Measurement program of the pipeline benchmark (see README.md).
//
//   pipebench --workload validation|mixed --seed N --seconds S
//             --trace 0|1 --work DIR
//
// Generates the workload's corpus from the seed into DIR, runs the path that
// `aggrecol batch` runs (eval::LoadCorpusDirectory, then
// eval::BatchRunner::Run) and prints one JSON object of raw measurements on
// stdout, every timed stretch with the host gauge sampled before and after
// it (HostGauge). run.py reduces the record to the benchmark's metrics. With
// --trace 1 it also replays every file layer by layer (replay.h) and
// collects the obs counters of one untimed pass. Exits non-zero on bad arguments or I/O
// failure; wrong detections are reported in the JSON, never dropped.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <filesystem>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "datagen/corpus.h"
#include "datagen/file_generator.h"
#include "eval/batch_runner.h"
#include "eval/dataset_io.h"
#include "eval/metrics.h"
#include "obs/metrics.h"
#include "replay.h"
#include "util/stopwatch.h"

namespace pipebench {
namespace {

namespace datagen = aggrecol::datagen;
namespace eval = aggrecol::eval;
namespace obs = aggrecol::obs;
using aggrecol::util::Stopwatch;

constexpr uint64_t kTallPlanSeed = 4242;
constexpr int kMixedTallRows = 2500;
constexpr int kMixedTallFiles = 3;
constexpr int kSetupRepeats = 3;
constexpr int kMinPasses = 2;
constexpr int kMaxPasses = 200;
// A sequential pass runs its files in slices of this many (20 slices of
// about 0.2 s for the 385 VALIDATION files), the host gauged between slices.
constexpr size_t kSliceFiles = 20;
constexpr uint64_t kGaugeSeed = 99;
constexpr size_t kGaugeValues = 200000;
constexpr int kGaugeRounds = 4;
constexpr int kGaugeVectors = 5000;

// Counters of the real batch path surfaced by the traced run.
constexpr const char* kCounters[] = {
    "csv.sniff.candidates",        "csv.parse.cells",
    "numfmt.elect.files",          "individual.candidates.adjacency",
    "individual.candidates.window", "prune.input.candidates",
    "prune.r1_coverage.candidates", "prune.accepted.candidates",
    "stage2.input.candidates",     "stage3.rounds",
    "stage3.configurations",       "stage3.fresh",
    "stage3.returned"};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work;
};

struct Workload {
  int threads = 1;
  int max_in_flight = 1;
  // Files per BatchRunner::Run call of a timed pass; 0 runs them all at once.
  size_t slice_files = 0;
};

// Reference work that runs no library code: a sort of a fixed list of 200k
// doubles (1.6 MB, in the private cache as a detection's data is) and the
// building and freeing of 20k small vectors (the allocator churn of
// detection). The host this benchmark was built on slows down and speeds up
// by up to a third for seconds at a time. Sampled before and after each
// timed stretch, the gauge measures the host's speed during that stretch,
// and run.py divides each timing by it (README.md, "Steady timing"). The
// geometric mean of these two parts followed detection time more closely
// than either alone, a dependent walk through memory or a hash-map fill.
class HostGauge {
 public:
  HostGauge() : values_(kGaugeValues), scratch_(kGaugeValues) {
    std::mt19937_64 rng(kGaugeSeed);
    std::uniform_real_distribution<double> uniform(0.0, 1.0);
    for (double& value : values_) value = uniform(rng);
  }

  // Seconds of one reference run.
  double Sample() { return std::sqrt(SortSeconds() * AllocSeconds()); }

 private:
  double SortSeconds() {
    std::copy(values_.begin(), values_.end(), scratch_.begin());
    Stopwatch clock;
    std::sort(scratch_.begin(), scratch_.end());
    const double seconds = clock.ElapsedSeconds();
    sink_ = scratch_[scratch_.size() / 2];
    return seconds;
  }

  double AllocSeconds() {
    Stopwatch clock;
    std::mt19937 rng(kGaugeSeed);
    double sum = 0.0;
    for (int round = 0; round < kGaugeRounds; ++round) {
      std::vector<std::vector<double>> vectors;
      for (int v = 0; v < kGaugeVectors; ++v) vectors.emplace_back(8 + rng() % 56, 1.5);
      for (const auto& vector : vectors) sum += std::accumulate(vector.begin(), vector.end(), 0.0);
    }
    sink_ = sum;
    return clock.ElapsedSeconds();
  }

  std::vector<double> values_;
  std::vector<double> scratch_;
  volatile double sink_ = 0.0;
};

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        have_seconds = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return std::nullopt;
        args.trace = value == "1";
        have_trace = true;
      } else if (flag == "--work") {
        args.work = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace ||
      args.work.empty() || args.seconds <= 0.0) {
    return std::nullopt;
  }
  return args;
}

// A tall file: the generator's big-file plan at `rows` data rows, always
// from generator seed 4242 (17 columns, ROADMAP's tall ladder). Across
// generator seeds the cost of a 17-column tall file varies 2.5x, which would
// swamp the timing spread the benchmark exists to resolve.
eval::AnnotatedFile TallFile(int rows) {
  datagen::GeneratorProfile profile;
  profile.p_no_aggregation = 0.0;
  profile.p_tiny_file = 0.0;
  profile.p_second_table = 0.0;
  profile.p_big_file = 1.0;
  profile.big_file_rows = rows;
  return datagen::GenerateFile(profile, kTallPlanSeed, "tall.csv");
}

// The VALIDATION corpus (datagen::ValidationCorpus, its own generator seed)
// in an order drawn from `seed`. Across generator seeds the corpus's
// detection time varies by +-17% (the count of 300-row files alone is
// binomial), so the seed orders the files instead of drawing new ones.
std::vector<eval::AnnotatedFile> ValidationFiles(std::mt19937_64& rng) {
  std::vector<eval::AnnotatedFile> files =
      datagen::GenerateCorpus(datagen::ValidationCorpus());
  std::shuffle(files.begin(), files.end(), rng);
  return files;
}

// Writes the workload's corpus as `<stem>.csv`/`<stem>.annotations` pairs.
// Stems sort in batch order; tall files carry a "-tall" suffix.
bool WriteCorpus(const std::string& workload, uint64_t seed, const std::string& dir,
                 Workload* config) {
  std::vector<std::pair<std::string, eval::AnnotatedFile>> files;
  std::mt19937_64 rng(seed);
  auto stem = [](size_t index, bool tall) {
    std::string digits = std::to_string(index);
    return "f" + std::string(4 - std::min<size_t>(4, digits.size()), '0') + digits +
           (tall ? "-tall" : "");
  };
  if (workload == "validation") {
    for (auto& file : ValidationFiles(rng)) {
      files.emplace_back(stem(files.size(), false), std::move(file));
    }
    config->slice_files = kSliceFiles;
  } else if (workload == "mixed") {
    config->threads = 2;
    config->max_in_flight = 2;
    auto small = ValidationFiles(rng);
    const size_t stride = small.size() / (kMixedTallFiles + 1);
    for (size_t i = 0; i < small.size(); ++i) {
      if (i > 0 && i % stride == 0 && i / stride <= kMixedTallFiles) {
        files.emplace_back(stem(files.size(), true), TallFile(kMixedTallRows));
      }
      files.emplace_back(stem(files.size(), false), std::move(small[i]));
    }
  } else {
    return false;
  }
  std::error_code error;
  std::filesystem::remove_all(dir, error);
  std::filesystem::create_directories(dir, error);
  if (error) return false;
  for (const auto& [name, file] : files) {
    if (!eval::SaveAnnotatedFile(dir, name, file)) return false;
  }
  return true;
}

// Minimal JSON emission of the raw record.
class Json {
 public:
  Json() { out_.precision(17); }
  void Key(const std::string& key) {
    Comma();
    out_ << '"' << key << "\":";
    first_ = true;
  }
  void Open(char bracket) {
    Comma();
    out_ << bracket;
    first_ = true;
  }
  void Close(char bracket) {
    out_ << bracket;
    first_ = false;
  }
  template <typename T>
  void Value(const T& value) {
    Comma();
    out_ << value;
  }
  void String(const std::string& value) {
    Comma();
    out_ << '"' << value << '"';
  }
  template <typename T>
  void Array(const std::vector<T>& values) {
    Open('[');
    for (const auto& value : values) {
      if constexpr (std::is_same_v<T, std::string>) {
        String(value);
      } else {
        Value(value);
      }
    }
    Close(']');
  }
  std::string str() const { return out_.str(); }

 private:
  void Comma() {
    if (!first_) out_ << ',';
    first_ = false;
  }
  std::ostringstream out_;
  bool first_ = true;
};

// Runs timed passes until `budget_s` has elapsed and at least kMinPasses ran.
template <typename Pass>
void RunPasses(double budget_s, Pass pass) {
  Stopwatch clock;
  for (int passes = 0; passes < kMaxPasses &&
                       (passes < kMinPasses || clock.ElapsedSeconds() < budget_s);
       ++passes) {
    pass();
  }
}

// The generated corpus directory, removed however the run ends.
struct CorpusDir {
  std::string path;
  ~CorpusDir() {
    std::error_code error;
    std::filesystem::remove_all(path, error);
  }
};

// Results every pass must reproduce, and the tallies of the checks.
struct Checker {
  // Final aggregations per file, taken from the first pass that reaches it.
  std::vector<std::vector<aggrecol::core::Aggregation>> reference;
  // Pooled F1 of the first whole pass.
  std::optional<double> f1;
  long attempted = 0;
  long failed = 0;
  long ok = 0;
  std::vector<std::string> failures;

  void Fail(const std::string& what) {
    ++failed;
    if (failures.size() < 10) failures.push_back(what);
  }

  void Check(size_t index, const eval::BatchFileReport& got) {
    if (index == reference.size()) reference.push_back(got.result.aggregations);
    ++attempted;
    if (got.outcome == eval::FileOutcome::kOk) ++ok;
    if (got.outcome != eval::FileOutcome::kOk ||
        !BitIdentical(got.result.aggregations, reference[index])) {
      Fail(got.name);
    }
  }

  void Check(const eval::BatchReport& report) {
    if (!f1.has_value()) f1 = report.scores.F1();
    for (size_t f = 0; f < report.files.size(); ++f) Check(f, report.files[f]);
  }
};

struct PassRecord {
  std::vector<double> file_seconds;
  // Per file: the mean of the gauge samples before and after its slice.
  std::vector<double> file_host_s;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  // The mean of the gauge samples that bracket the pass's slices.
  double host_s = 0.0;
};

// One timed pass over `files` in slices of `slice_files` (all at once when
// 0), each its own BatchRunner::Run, the host gauged before the first slice
// and after each.
PassRecord TimedPass(eval::BatchRunner& runner, const std::vector<eval::AnnotatedFile>& files,
                     size_t slice_files, HostGauge* gauge, Checker* checker) {
  PassRecord record;
  const size_t step = slice_files == 0 ? files.size() : slice_files;
  std::vector<eval::Scores> scores;
  double host_s = gauge->Sample();
  double host_sum = host_s;
  int host_samples = 1;
  for (size_t begin = 0; begin < files.size(); begin += step) {
    const double cpu0 = CpuSeconds();
    const eval::BatchReport report =
        step >= files.size()
            ? runner.Run(files)
            : runner.Run({files.begin() + begin,
                          files.begin() + std::min(files.size(), begin + step)});
    record.cpu_s += CpuSeconds() - cpu0;
    record.wall_s += report.seconds_wall;
    const double before = host_s;
    host_s = gauge->Sample();
    host_sum += host_s;
    ++host_samples;
    for (size_t f = 0; f < report.files.size(); ++f) {
      record.file_seconds.push_back(report.files[f].seconds);
      record.file_host_s.push_back((before + host_s) / 2.0);
      checker->Check(begin + f, report.files[f]);
    }
    scores.push_back(report.scores);
  }
  record.host_s = host_sum / host_samples;
  if (!checker->f1.has_value()) checker->f1 = eval::Accumulate(scores).F1();
  return record;
}

void EmitPasses(Json* json, const std::string& key, const std::vector<PassRecord>& passes) {
  json->Key(key);
  json->Open('[');
  for (const auto& pass : passes) {
    json->Open('{');
    json->Key("file_seconds");
    json->Array(pass.file_seconds);
    json->Key("file_host_s");
    json->Array(pass.file_host_s);
    json->Key("wall_s");
    json->Value(pass.wall_s);
    json->Key("cpu_s");
    json->Value(pass.cpu_s);
    json->Key("host_s");
    json->Value(pass.host_s);
    json->Close('}');
  }
  json->Close(']');
}

eval::BatchOptions OptionsOf(const Workload& workload) {
  eval::BatchOptions options;
  options.threads = workload.threads;
  options.max_in_flight = workload.max_in_flight;
  return options;
}

int Run(const Args& args) {
  Workload workload;
  const CorpusDir corpus{args.work + "/" + args.workload + "-" + std::to_string(args.seed)};
  const std::string& dir = corpus.path;
  if (!WriteCorpus(args.workload, args.seed, dir, &workload)) {
    std::cerr << "pipebench: cannot build workload '" << args.workload << "' in "
              << dir << "\n";
    return 2;
  }
  const bool concurrent = workload.threads > 1;
  Json json;
  json.Open('{');
  json.Key("workload");
  json.String(args.workload);
  json.Key("threads");
  json.Value(workload.threads);

  // Set-up: what an `aggrecol batch` user waits before the first detection.
  // Samples are spread over the run, a few up front and one before each
  // timed pass, so no single burst of host slowdown covers all of them.
  // Each is gauged like a slice of a pass.
  HostGauge gauge;
  std::vector<double> setup_s, setup_host_s;
  auto set_up = [&] {
    const double before = gauge.Sample();
    Stopwatch clock;
    auto loaded = eval::LoadCorpusDirectory(dir);
    auto made = std::make_unique<eval::BatchRunner>(OptionsOf(workload));
    setup_s.push_back(clock.ElapsedSeconds());
    setup_host_s.push_back((before + gauge.Sample()) / 2.0);
    return std::make_pair(std::move(loaded), std::move(made));
  };
  auto [files, runner] = set_up();
  for (int r = 1; r < kSetupRepeats; ++r) set_up();

  // Warm-up, and on a concurrent workload the sequential reference every
  // concurrent pass must reproduce. In the traced run this untimed pass also
  // collects the obs counters of the real path, load included.
  eval::BatchRunner sequential(OptionsOf(Workload{}));
  Checker checker;
  obs::MetricsSnapshot counters;
  auto warm_up = [&] {
    if (concurrent || args.trace) {
      checker.Check(sequential.Run(*files));
    } else {
      const auto smallest = std::min_element(
          files->begin(), files->end(), [](const auto& a, const auto& b) {
            return a.grid.rows() * a.grid.columns() < b.grid.rows() * b.grid.columns();
          });
      sequential.Run({*smallest});
    }
  };
  if (args.trace) {
    obs::ScopedMetrics scope;
    files = eval::LoadCorpusDirectory(dir);
    if (files.has_value()) warm_up();
    counters = obs::Registry::Instance().Snapshot();
  } else if (files.has_value()) {
    warm_up();
  }
  if (!files.has_value()) {
    std::cerr << "pipebench: cannot load " << dir << "\n";
    return 2;
  }

  json.Key("files");
  json.Open('[');
  for (size_t f = 0; f < files->size(); ++f) {
    const auto& file = (*files)[f];
    json.Open('{');
    json.Key("name");
    json.String(std::filesystem::path(file.name).stem().string());
    json.Key("rows");
    json.Value(file.grid.rows());
    json.Key("columns");
    json.Value(file.grid.columns());
    json.Key("tall");
    json.Value(file.name.find("-tall") != std::string::npos ? "true" : "false");
    json.Close('}');
  }
  json.Close(']');

  if (!args.trace) {
    std::vector<PassRecord> passes;
    RunPasses(args.seconds, [&] {
      set_up();
      passes.push_back(
          TimedPass(*runner, *files, workload.slice_files, &gauge, &checker));
    });
    EmitPasses(&json, "passes", passes);
  } else {
    // Paired passes: each file's untraced sequential detection and its
    // layer-by-layer replay run back to back, in alternating order, so both
    // see the same host conditions. Then the workload's own batch passes.
    std::vector<PassRecord> sequential_passes;
    json.Key("layers");
    json.Array(LayerNames());
    json.Key("replay");
    json.Open('[');
    RunPasses(args.seconds * 5.0 / 6.0, [&] {
      PassRecord record;
      const bool replay_first = sequential_passes.size() % 2 == 1;
      json.Open('[');
      for (size_t f = 0; f < files->size(); ++f) {
        const std::string& path = (*files)[f].name;
        const std::vector<eval::AnnotatedFile> one = {(*files)[f]};
        auto untraced = [&] {
          const eval::BatchReport report = sequential.Run(one);
          record.file_seconds.push_back(report.files[0].seconds);
          checker.Check(f, report.files[0]);
        };
        if (!replay_first) untraced();
        const ReplayResult replay = ReplayFile(
            path, std::filesystem::path(path).replace_extension(".annotations").string());
        if (replay_first) untraced();
        ++checker.attempted;
        if (!replay.loaded || !BitIdentical(replay.aggregations, checker.reference[f])) {
          checker.Fail("replay:" + path);
        }
        json.Array(replay.layer_seconds);
      }
      json.Close(']');
      sequential_passes.push_back(std::move(record));
    });
    json.Close(']');
    EmitPasses(&json, "sequential_passes", sequential_passes);
    std::vector<PassRecord> batch_passes;
    RunPasses(args.seconds / 6.0, [&] {
      batch_passes.push_back(
          TimedPass(*runner, *files, workload.slice_files, &gauge, &checker));
    });
    EmitPasses(&json, "passes", batch_passes);

    json.Key("counters");
    json.Open('{');
    for (const char* name : kCounters) {
      json.Key(name);
      json.Value(counters.counter(name));
    }
    json.Close('}');
  }

  json.Key("setup_s");
  json.Array(setup_s);
  json.Key("setup_host_s");
  json.Array(setup_host_s);
  json.Key("f1");
  json.Value(checker.f1.value_or(0.0));
  json.Key("attempted");
  json.Value(checker.attempted);
  json.Key("failed");
  json.Value(checker.failed);
  json.Key("ok");
  json.Value(checker.ok);
  json.Key("failures");
  json.Open('[');
  for (const auto& name : checker.failures) json.String(name);
  json.Close(']');
  json.Key("peak_rss_mb");
  json.Value(PeakRssMb());
  json.Close('}');

  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) {
  const auto args = pipebench::ParseArgs(argc, argv);
  if (!args.has_value()) {
    std::cerr << "usage: pipebench --workload validation|mixed --seed N "
                 "--seconds S --trace 0|1 --work DIR\n";
    return 2;
  }
  return pipebench::Run(*args);
}
