// perfbench_iter: one measured iteration of a perfbench workload.
//
// perfbench/run.py starts this binary once per iteration, so every
// iteration runs in a fresh process (no allocator or cache state carried
// over from an earlier case, and a per-iteration peak RSS). One iteration:
//
//   1. set-up: generate each case (gen) and write it as native .netlist
//      files (io); timed as setup, never as wall;
//   2. run: rectify and certify every case, either in-process through
//      runSyseco (eco + verify) or by running syseco_cli --isolate as a
//      subprocess; timed as wall, with user+sys CPU from getrusage/wait4
//      and the peak RSS of the engine's process;
//   3. facts: per case, the run report (eco/report's runReportText
//      in-process, the CLI's --report otherwise) and the rectified
//      netlist, written to disk for run.py's checks;
//   4. with --trace 1 only: spans around every call this file makes into
//      a module, and kernel probes that time the public entry points of
//      netlist, sim, cnf, sat and util/journal on the case's own netlists.
//
// Usage:
//   perfbench_iter --cases eco02,eco10 --work DIR [--jobs N] [--seed S]
//                  [--trace 0|1] [--cli PATH]
// Writes one JSON object of raw facts to DIR/facts.json; run.py turns the
// facts into metrics and checks them against perfbench/reference.json.

#include <fcntl.h>
#include <malloc.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cnf/encode.hpp"
#include "eco/report.hpp"
#include "eco/syseco.hpp"
#include "gen/eco_case.hpp"
#include "io/netlist_io.hpp"
#include "sat/solver.hpp"
#include "sim/simulator.hpp"
#include "util/journal.hpp"
#include "util/rng.hpp"

extern char** environ;

namespace syseco {
namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// In-memory span recorder. Spans are recorded only in traced iterations;
/// an untraced iteration pays one branch per call site.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0.0;  ///< seconds since the tracer was created
    double end = 0.0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t) {
      if (!t_.enabled_) return;
      index_ = static_cast<int>(t_.spans_.size());
      t_.spans_.push_back({name, t_.open_, secondsSince(t_.origin_), 0.0});
      t_.open_ = index_;
    }
    ~Scope() {
      if (index_ < 0) return;
      t_.spans_[index_].end = secondsSince(t_.origin_);
      t_.open_ = t_.spans_[index_].parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int index_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int open_ = -1;
};

struct Usage {
  double cpu = 0.0;  ///< user+sys seconds
  long maxRssKb = 0;
};

Usage usageOf(const rusage& ru) {
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return {sec(ru.ru_utime) + sec(ru.ru_stime), ru.ru_maxrss};
}

Usage selfUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return usageOf(ru);
}

/// Hands freed heap back to the kernel and resets this process's peak
/// RSS (VmHWM) to its current RSS, so peakRssKb() afterwards covers only
/// what runs in between. Returns false when the mark cannot be reset.
bool resetPeakRss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5" << std::flush;
  return static_cast<bool>(f);
}

/// This process's peak RSS since the last resetPeakRss().
long peakRssKb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  return selfUsage().maxRssKb;
}

/// Minimal JSON object writer: the facts file is flat enough that a
/// builder keyed by insertion order beats pulling in a library.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return raw(key, buf);
  }
  Json& num(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& str(const std::string& key, const std::string& v) {
    std::string quoted(1, '"');
    quoted += jsonEscape(v);
    quoted += '"';
    return raw(key, quoted);
  }
  Json& raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + v;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

template <typename T>
std::uint64_t u64(T v) {
  return static_cast<std::uint64_t>(v);
}

std::string jsonArray(const std::vector<std::string>& items) {
  std::string s = "[";
  for (std::size_t i = 0; i < items.size(); ++i)
    s += (i ? ", " : "") + items[i];
  return s + "]";
}

CaseRecipe findRecipe(const std::string& name) {
  for (const auto& list : {suiteRecipes(), timingRecipes()})
    for (const CaseRecipe& r : list)
      if (r.name == name) return r;
  throw std::runtime_error("unknown case " + name);
}

std::vector<std::string> splitList(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, sep))
    if (!item.empty()) out.push_back(item);
  return out;
}

/// The counters run.py needs that the run report does not carry: route
/// seconds, BDD computed-cache lookups and the candidate counts.
std::string extraFacts(const SysecoDiagnostics& d) {
  std::uint64_t cacheHits = 0, cacheMisses = 0;
  double bddS = 0, bddSkippedS = 0, satS = 0, simS = 0, certifyMax = 0;
  for (const OutputCertificate& c : d.certificates) {
    if (c.bdd.verdict == RouteVerdict::kSkippedBudget)
      bddSkippedS += c.bdd.seconds;
    bddS += c.bdd.seconds;
    satS += c.sat.seconds;
    simS += c.sim.seconds;
    certifyMax =
        std::max(certifyMax, c.sat.seconds + c.bdd.seconds + c.sim.seconds);
    cacheHits += c.bddStats.cacheHits;
    cacheMisses += c.bddStats.cacheMisses;
  }
  return Json()
      .num("bdd_s", bddS)
      .num("bdd_skipped_s", bddSkippedS)
      .num("sat_s", satS)
      .num("sim_s", simS)
      .num("certify_s_max", certifyMax)
      .num("bdd_cache_hits", cacheHits)
      .num("bdd_cache_misses", cacheMisses)
      .num("validations", u64(d.candidatesValidated))
      .num("refuted", u64(d.candidatesRefuted))
      .num("screen_rejected", u64(d.candidatesScreenRejected))
      .num("refine_rounds", u64(d.refinementRounds))
      .text();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  return v[k];
}

/// Kernel probes on one case's rectified netlist and its spec: each times
/// a module's public entry point the engine calls on its hot path. Clears
/// *probesOk when the netlist is malformed or a miter is not UNSAT.
std::string kernelProbe(Tracer& tracer, const Netlist& rectified,
                        const Netlist& spec, std::uint64_t seed,
                        bool* probesOk) {
  constexpr int kReps = 20;
  Json j;
  {
    Tracer::Scope s(tracer, "netlist.is_well_formed");
    const auto t0 = Clock::now();
    bool ok = true;
    for (int i = 0; i < kReps; ++i) ok &= rectified.isWellFormed();
    j.num("well_formed_us", secondsSince(t0) * 1e6 / kReps);
    if (!ok) *probesOk = false;
  }
  {
    Tracer::Scope s(tracer, "sim.load_patterns");
    Rng rng(seed);
    std::vector<InputPattern> patterns(64,
                                       InputPattern(rectified.numInputs()));
    for (InputPattern& p : patterns)
      for (std::uint8_t& bit : p) bit = rng.next() & 1;
    double runS = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < kReps; ++i) {
      Simulator sim(rectified, 1);
      sim.loadPatterns(patterns);
      const auto r0 = Clock::now();
      sim.run();
      runS += secondsSince(r0);
    }
    j.num("load_patterns_us", secondsSince(t0) * 1e6 / kReps);
    const double evals = static_cast<double>(rectified.countLiveGates()) *
                         64.0 * kReps;
    j.num("gate_evals", evals).num("sim_run_s", runS);
  }
  // Label-matched output pairs, as the oracle pairs them.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (std::uint32_t o = 0; o < rectified.numOutputs(); ++o) {
    const std::uint32_t op = spec.findOutput(rectified.outputName(o));
    if (op != kNullId) pairs.emplace_back(o, op);
  }
  {
    // PairEncoding encodes cones lazily, so the probe times construction
    // plus the miter variable of every output pair: the CNF a validation
    // builds from scratch.
    Tracer::Scope s(tracer, "cnf.pair_encoding");
    const auto t0 = Clock::now();
    for (int i = 0; i < 5; ++i) {
      PairEncoding enc(rectified, spec);
      for (const auto& [o, op] : pairs) enc.diffVar(o, op);
    }
    j.num("pair_encoding_us", secondsSince(t0) * 1e6 / 5);
  }
  {
    Tracer::Scope s(tracer, "sat.solve_diff");
    PairEncoding enc(rectified, spec);
    for (const auto& [o, op] : pairs) enc.diffVar(o, op);
    const auto t0 = Clock::now();
    for (const auto& [o, op] : pairs)
      if (enc.solveDiff(o, op) != Solver::Result::Unsat) *probesOk = false;
    j.num("miter_s", secondsSince(t0))
        .num("conflicts", enc.solver().numConflicts())
        .num("propagations", enc.solver().numPropagations())
        .num("decisions", enc.solver().numDecisions());
  }
  return j.text();
}

/// Times JournalWriter::append (write + fsync + COMMIT marker) at the
/// given record size.
std::string journalProbe(Tracer& tracer, const std::string& dir,
                         std::size_t recordBytes, int appends) {
  Tracer::Scope s(tracer, "util/journal.append");
  auto writer = JournalWriter::create(dir, "perfbench");
  if (!writer.isOk())
    throw std::runtime_error("journal probe: " + writer.status().toString());
  const std::string prefix = "{\"type\":\"probe\",\"pad\":\"";
  const std::size_t padLen =
      recordBytes > prefix.size() + 2 ? recordBytes - prefix.size() - 2 : 1;
  const std::string payload = prefix + std::string(padLen, 'x') + "\"}";
  std::vector<double> us;
  for (int i = 0; i < appends; ++i) {
    const auto t0 = Clock::now();
    const Status st = writer.value().append(payload);
    us.push_back(secondsSince(t0) * 1e6);
    if (!st.isOk()) throw std::runtime_error("journal probe: " + st.toString());
  }
  return Json()
      .num("record_bytes", u64(payload.size()))
      .num("appends", u64(appends))
      .num("append_fsync_p50_us", percentile(us, 0.50))
      .num("append_fsync_p99_us", percentile(us, 0.99))
      .text();
}

/// Runs the CLI to completion; returns its exit code and its rusage
/// (wait4 folds in every grandchild the CLI reaped, i.e. --isolate workers).
int runCli(const std::vector<std::string>& args, const std::string& logPath,
           rusage* ru) {
  std::vector<char*> argv;
  for (const std::string& a : args)
    argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, logPath.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&fa, 1, 2);
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, argv[0], &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) throw std::runtime_error("cannot start " + args[0]);
  int status = 0;
  while (wait4(pid, &status, 0, ru) < 0)
    if (errno != EINTR) throw std::runtime_error("wait4 failed");
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

struct Args {
  std::vector<std::string> cases;
  std::string work;
  std::size_t jobs = 1;
  std::uint64_t seed = 1;
  bool trace = false;
  std::string cli;  ///< empty: in-process
};

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--cases") a.cases = splitList(v, ',');
    else if (k == "--work") a.work = v;
    else if (k == "--jobs") a.jobs = std::stoul(v);
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--cli") a.cli = v;
    else throw std::runtime_error("unknown option " + k);
  }
  if (a.cases.empty() || a.work.empty())
    throw std::runtime_error("--cases and --work are required");
  return a;
}

int run(const Args& args) {
  namespace fs = std::filesystem;
  fs::create_directories(args.work);
  Tracer tracer(args.trace);

  // 1. Set-up: generate every case, write it and read it back, so the
  // in-process engine sees exactly the netlists the CLI would load.
  // Repeated kSetupReps times; the median of each part is reported.
  constexpr int kSetupReps = 9;
  std::vector<double> genS, saveS, loadS;
  std::vector<EcoCase> cases;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    cases.clear();
    double gen = 0, save = 0, load = 0;
    for (const std::string& name : args.cases) {
      const std::string stem = args.work + "/" + name;
      auto t0 = Clock::now();
      EcoCase c;
      {
        Tracer::Scope s(tracer, "gen.make_case");
        c = makeCase(findRecipe(name));
      }
      gen += secondsSince(t0);
      t0 = Clock::now();
      {
        Tracer::Scope s(tracer, "io.save_netlist");
        saveNetlist(stem + ".impl.netlist", c.impl, name + "_impl");
        saveNetlist(stem + ".spec.netlist", c.spec, name + "_spec");
      }
      save += secondsSince(t0);
      t0 = Clock::now();
      {
        Tracer::Scope s(tracer, "io.load_netlist");
        c.impl = loadNetlist(stem + ".impl.netlist");
        c.spec = loadNetlist(stem + ".spec.netlist");
      }
      load += secondsSince(t0);
      cases.push_back(std::move(c));
    }
    genS.push_back(gen);
    saveS.push_back(save);
    loadS.push_back(load);
  }

  // 2. Run: the timed region.
  std::vector<std::string> caseFacts;
  std::vector<std::pair<std::size_t, Netlist>> rectified;  // (case, netlist)
  double wallS = 0, cpuS = 0, outLoadS = 0;
  long rssKb = 0;
  if (args.cli.empty()) {
    if (!resetPeakRss())
      std::fprintf(stderr, "perfbench_iter: cannot reset the peak RSS; "
                           "peak_rss_kb includes the set-up\n");
    const Usage u0 = selfUsage();
    SysecoOptions opt;
    opt.jobs = args.jobs;
    std::vector<EcoResult> results;
    std::vector<SysecoDiagnostics> diags(cases.size());
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < cases.size(); ++i) {
      Tracer::Scope s(tracer, "eco.run_syseco");
      results.push_back(
          runSyseco(cases[i].impl, cases[i].spec, opt, &diags[i]));
    }
    wallS = secondsSince(t0);
    cpuS = selfUsage().cpu - u0.cpu;
    rssKb = peakRssKb();
    for (std::size_t i = 0; i < cases.size(); ++i) {
      // The same report and exit code the CLI would write for this run.
      const std::string stem = args.work + "/" + args.cases[i];
      const EcoResult& r = results[i];
      const int exitCode =
          r.success ? (diags[i].resourceDegraded() ? 4 : 0) : 1;
      saveNetlist(stem + ".out.netlist", r.rectified, args.cases[i]);
      std::ofstream(stem + ".report.json")
          << runReportText("syseco", r, diags[i], opt.audit,
                           opt.oracle.enabled, exitCode);
      caseFacts.push_back(Json()
                              .str("name", args.cases[i])
                              .num("exit_code", u64(exitCode))
                              .str("netlist", stem + ".out.netlist")
                              .str("report", stem + ".report.json")
                              .raw("extra", extraFacts(diags[i]))
                              .text());
      rectified.emplace_back(i, std::move(results[i].rectified));
    }
  } else {
    // One `syseco_cli --isolate` invocation per case, back to back; wall
    // and CPU are summed, and RSS is the largest, over the invocations.
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const std::string stem = args.work + "/" + args.cases[i];
      std::vector<std::string> argv = {
          args.cli, "--impl", stem + ".impl.netlist",
          "--spec", stem + ".spec.netlist",
          "--jobs", std::to_string(args.jobs),
          "--journal", stem + ".journal",
          "--report", stem + ".report.json",
          "--out", stem + ".out.netlist", "--isolate"};
      rusage ru{};
      const auto t0 = Clock::now();
      int exitCode = 0;
      {
        Tracer::Scope s(tracer, "tools.syseco_cli");
        exitCode = runCli(argv, stem + ".cli.log", &ru);
      }
      wallS += secondsSince(t0);
      const Usage u = usageOf(ru);
      cpuS += u.cpu;
      rssKb = std::max(rssKb, u.maxRssKb);
      if (exitCode == 0) {
        const auto l0 = Clock::now();
        {
          Tracer::Scope s(tracer, "io.load_netlist");
          rectified.emplace_back(i, loadNetlist(stem + ".out.netlist"));
        }
        outLoadS += secondsSince(l0);
      }
      caseFacts.push_back(
          Json()
              .str("name", args.cases[i])
              .num("exit_code", u64(exitCode))
              .str("netlist", stem + ".out.netlist")
              .str("report", stem + ".report.json")
              .text());
    }
  }

  // 3. Facts: timings and per-case results for run.py.
  Json facts;
  facts.raw("setup", Json()
                         .num("gen_s", percentile(genS, 0.5))
                         .num("save_s", percentile(saveS, 0.5))
                         .num("load_s", percentile(loadS, 0.5))
                         .text())
      .raw("run", Json()
                      .num("wall_s", wallS)
                      .num("cpu_s", cpuS)
                      .num("peak_rss_kb", u64(rssKb))
                      .num("out_load_s", outLoadS)
                      .text())
      .raw("cases", jsonArray(caseFacts));

  // 4. Traced iterations only: kernel probes and the span list.
  if (args.trace) {
    std::vector<std::string> probes;
    bool probesOk = true;
    for (const auto& [i, netlist] : rectified)
      probes.push_back(kernelProbe(tracer, netlist, cases[i].spec,
                                   args.seed + i, &probesOk));
    facts.raw("probes", jsonArray(probes)).boolean("probes_ok", probesOk);
    if (!args.cli.empty()) {
      // Probe the journal at the CLI journals' mean record size.
      std::uint64_t records = 0, bytes = 0;
      for (const std::string& name : args.cases) {
        const std::string dir = args.work + "/" + name + ".journal";
        auto scan = scanJournal(dir);
        if (scan.isOk()) records += scan.value().frames.size();
        std::error_code ec;
        const auto size = fs::file_size(journalDataPath(dir), ec);
        if (!ec) bytes += size;
      }
      const std::size_t mean = records ? bytes / records : 256;
      facts.raw("journal",
                Json()
                    .num("records", records)
                    .num("bytes", bytes)
                    .raw("probe", journalProbe(tracer,
                                               args.work + "/journal_probe",
                                               mean, 1000))
                    .text());
    }
    std::vector<std::string> spans;
    for (const Tracer::Span& s : tracer.spans())
      spans.push_back(Json()
                          .str("name", s.name)
                          .num("parent", static_cast<double>(s.parent))
                          .num("start", s.start)
                          .num("end", s.end)
                          .text());
    facts.raw("spans", jsonArray(spans));
  }

  std::ofstream(args.work + "/facts.json") << facts.text() << "\n";
  return 0;
}

}  // namespace
}  // namespace syseco

int main(int argc, char** argv) {
  try {
    return syseco::run(syseco::parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_iter: %s\n", e.what());
    return 2;
  }
}
