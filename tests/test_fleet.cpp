// The agent transport's building blocks: the framed TCP stream
// classification, the agent codecs (content-addressed case upload,
// need-case / heartbeat / failure envelopes), the agent's resident-case
// LRU, the transport-independent retry backoff, and the validation of the
// dispatch knobs. The end-to-end network failure taxonomy of whole-case
// dispatch lives in test_batch.cpp.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "eco/fleet.hpp"
#include "eco/isolate.hpp"
#include "eco/syseco.hpp"
#include "util/io_retry.hpp"
#include "util/ipc.hpp"
#include "util/socket.hpp"
#include "util/subprocess.hpp"
#include "test_dirs.hpp"

#ifndef SYSECO_SOURCE_DIR
#define SYSECO_SOURCE_DIR "."
#endif

namespace syseco {
namespace {

// --- Stream classification (net::takeFrame) -------------------------------

TEST(FleetTransport, TakeFrameExtractsFramesAndPreservesTheRest) {
  std::string buf = ipc::encodeFrame(ipc::kTypeFleetCaseTask, "first") +
                    ipc::encodeFrame(ipc::kTypeFleetCaseResult, "second");
  net::RecvOutcome one = net::takeFrame(&buf, /*eof=*/false);
  ASSERT_EQ(one.status, net::RecvStatus::kFrame);
  EXPECT_EQ(one.frame.type, ipc::kTypeFleetCaseTask);
  EXPECT_EQ(one.frame.payload, "first");
  net::RecvOutcome two = net::takeFrame(&buf, /*eof=*/false);
  ASSERT_EQ(two.status, net::RecvStatus::kFrame);
  EXPECT_EQ(two.frame.payload, "second");
  EXPECT_EQ(net::takeFrame(&buf, /*eof=*/false).status,
            net::RecvStatus::kTimeout);
}

TEST(FleetTransport, CleanEofOnAFrameBoundaryIsClosed) {
  std::string buf;
  EXPECT_EQ(net::takeFrame(&buf, /*eof=*/true).status,
            net::RecvStatus::kClosed);
}

TEST(FleetTransport, EofMidFrameIsTruncatedNotGarbage) {
  const std::string full =
      ipc::encodeFrame(ipc::kTypeFleetCaseResult, std::string(256, 'x'));
  std::string buf = full.substr(0, full.size() / 2);
  // The stream is intact while the peer might still send the rest...
  EXPECT_EQ(net::takeFrame(&buf, /*eof=*/false).status,
            net::RecvStatus::kTimeout);
  // ...and becomes a truncation the moment EOF proves it never will.
  EXPECT_EQ(net::takeFrame(&buf, /*eof=*/true).status,
            net::RecvStatus::kTruncated);
}

TEST(FleetTransport, NonFrameBytesAreGarbage) {
  std::string buf = "HTTP/1.1 200 OK\r\n\r\nthis was never a frame";
  EXPECT_EQ(net::takeFrame(&buf, /*eof=*/false).status,
            net::RecvStatus::kGarbage);
}

TEST(FleetTransport, DrainErrorIsATransportError) {
  std::string buf;
  net::RecvOutcome out = net::takeFrame(&buf, /*eof=*/false, ECONNRESET);
  EXPECT_EQ(out.status, net::RecvStatus::kError);
  EXPECT_NE(out.detail.find("errno"), std::string::npos);
}

TEST(FleetTransport, ParseHostPortAcceptsEndpointsAndRejectsJunk) {
  Result<std::pair<std::string, std::uint16_t>> hp =
      net::parseHostPort("127.0.0.1:8080");
  ASSERT_TRUE(hp.isOk());
  EXPECT_EQ(hp.value().first, "127.0.0.1");
  EXPECT_EQ(hp.value().second, 8080);
  EXPECT_FALSE(net::parseHostPort("").isOk());
  EXPECT_FALSE(net::parseHostPort("nohost").isOk());
  EXPECT_FALSE(net::parseHostPort(":9000").isOk());
  EXPECT_FALSE(net::parseHostPort("host:").isOk());
  EXPECT_FALSE(net::parseHostPort("host:0").isOk());
  EXPECT_FALSE(net::parseHostPort("host:70000").isOk());
  EXPECT_FALSE(net::parseHostPort("host:port").isOk());
}

// --- Fleet payload codecs -------------------------------------------------

TEST(FleetCodec, NeedCaseAndHeartbeatRoundtrip) {
  Result<std::uint32_t> crc = decodeFleetNeedCase(encodeFleetNeedCase(77));
  ASSERT_TRUE(crc.isOk());
  EXPECT_EQ(crc.value(), 77u);
  Result<std::uint64_t> ep =
      decodeFleetHeartbeat(encodeFleetHeartbeat(0x1234567890abcdefULL));
  ASSERT_TRUE(ep.isOk());
  EXPECT_EQ(ep.value(), 0x1234567890abcdefULL);
  EXPECT_FALSE(decodeFleetNeedCase("junk").isOk());
  EXPECT_FALSE(decodeFleetHeartbeat("junk").isOk());
}

/// Two-output base: o = a AND b, p = a OR b.
Netlist resultBase() {
  Netlist nl;
  const NetId a = nl.addInput("a");
  const NetId b = nl.addInput("b");
  nl.addOutput("o", nl.addGate(GateType::And, {a, b}));
  nl.addOutput("p", nl.addGate(GateType::Or, {a, b}));
  return nl;
}

TEST(FleetCodec, FailureRoundtripsAndRejectsUnknownCauses) {
  FleetFailure f;
  f.epoch = 3;
  f.cause = workerExitCauseName(WorkerExitCause::kOom);
  f.detail = "allocation failed";
  Result<FleetFailure> back = decodeFleetFailure(encodeFleetFailure(f));
  ASSERT_TRUE(back.isOk());
  EXPECT_EQ(back.value().epoch, 3u);
  EXPECT_EQ(back.value().cause, "oom");
  EXPECT_EQ(back.value().detail, "allocation failed");
  EXPECT_FALSE(decodeFleetFailure("junk").isOk());
  EXPECT_FALSE(
      decodeFleetFailure(
          "{\"epoch\":\"1\",\"cause\":\"martians\",\"detail\":\"\"}")
          .isOk());
}

TEST(FleetCodec, CaseRoundtripsNetlistsOptionsAndProtectList) {
  const Netlist base = resultBase();
  Netlist spec;
  const NetId a = spec.addInput("a");
  const NetId b = spec.addInput("b");
  spec.addOutput("o", spec.addGate(GateType::Nand, {a, b}));
  spec.addOutput("p", spec.addGate(GateType::Or, {a, b}));
  SysecoOptions opt;
  opt.seed = 1234;
  const std::vector<std::uint32_t> protect = {1, 0};

  Result<FleetCase> back =
      decodeFleetCase(encodeFleetCase(base, spec, opt, protect));
  ASSERT_TRUE(back.isOk()) << back.status().toString();
  EXPECT_EQ(back.value().base.dumpRawString(), base.dumpRawString());
  EXPECT_EQ(back.value().spec.dumpRawString(), spec.dumpRawString());
  EXPECT_EQ(back.value().options.seed, 1234u);
  EXPECT_EQ(back.value().protect, protect);
}

TEST(FleetCodec, CaseRejectsCorruption) {
  const Netlist base = resultBase();
  EXPECT_FALSE(decodeFleetCase("").isOk());
  EXPECT_FALSE(decodeFleetCase("not json").isOk());
  // A protect entry past the base output count is semantic garbage.
  SysecoOptions opt;
  EXPECT_FALSE(
      decodeFleetCase(encodeFleetCase(base, base, opt, {99})).isOk());
}

// --- The agent's resident-case LRU ----------------------------------------

FleetCase cacheCase() {
  FleetCase c;
  c.base = resultBase();
  c.spec = resultBase();
  return c;
}

TEST(FleetCaseCache, EvictsLeastRecentlyUsedAndATouchRefreshes) {
  CaseCacheLru cache(2);
  EXPECT_EQ(cache.slots(), 2u);
  EXPECT_EQ(cache.find(1), nullptr);

  ASSERT_NE(cache.insert(1, cacheCase()), nullptr);
  ASSERT_NE(cache.insert(2, cacheCase()), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.keysMruFirst(), (std::vector<std::uint32_t>{2, 1}));

  // A hit moves its entry to the front, so the *other* key is now the
  // eviction victim.
  CaseCacheLru::Entry* hit = cache.find(1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->crc, 1u);
  EXPECT_NE(hit->baseAnalysis, nullptr);
  EXPECT_NE(hit->specAnalysis, nullptr);
  EXPECT_EQ(cache.keysMruFirst(), (std::vector<std::uint32_t>{1, 2}));

  ASSERT_NE(cache.insert(3, cacheCase()), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.keysMruFirst(), (std::vector<std::uint32_t>{3, 1}));
  EXPECT_EQ(cache.find(2), nullptr) << "LRU key must have been evicted";

  // Re-uploading a resident key refreshes in place instead of evicting an
  // innocent bystander.
  ASSERT_NE(cache.insert(1, cacheCase()), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.keysMruFirst(), (std::vector<std::uint32_t>{1, 3}));
}

TEST(FleetCaseCache, ZeroSlotsClampsToOne) {
  CaseCacheLru cache(0);
  EXPECT_EQ(cache.slots(), 1u);
  ASSERT_NE(cache.insert(7, cacheCase()), nullptr);
  ASSERT_NE(cache.insert(8, cacheCase()), nullptr);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.keysMruFirst(), (std::vector<std::uint32_t>{8}));
}

// --- Transport-independent retry backoff ----------------------------------

double backoffBaseSeconds(const SysecoOptions& opt, int failedAttempts) {
  const int shift = std::min(failedAttempts - 1, 10);
  return std::min(opt.isolateBackoffMs * static_cast<double>(1u << shift),
                  5000.0) /
         1000.0;
}

TEST(FleetBackoff, JitterFractionIsAttemptInvariant) {
  SysecoOptions opt;
  opt.seed = 7;
  opt.isolateBackoffMs = 100.0;
  for (std::uint32_t o : {0u, 5u, 99u}) {
    const double frac0 =
        retryBackoffSeconds(opt, o, 1) / backoffBaseSeconds(opt, 1);
    for (int attempt = 2; attempt <= 12; ++attempt) {
      EXPECT_NEAR(
          retryBackoffSeconds(opt, o, attempt) /
              backoffBaseSeconds(opt, attempt),
          frac0, 1e-9)
          << "output " << o << " attempt " << attempt;
    }
  }
}

TEST(FleetBackoff, ScheduleIgnoresTheTransportConfiguration) {
  SysecoOptions forked;
  forked.seed = 42;
  forked.isolate = true;
  forked.isolateWallSeconds = 5.0;
  forked.isolateMemoryBytes = 1u << 30;
  SysecoOptions threads = forked;
  threads.isolate = false;
  threads.jobs = 4;
  for (std::uint32_t o = 0; o < 32; ++o)
    for (int attempt = 1; attempt <= 6; ++attempt)
      EXPECT_DOUBLE_EQ(retryBackoffSeconds(forked, o, attempt),
                       retryBackoffSeconds(threads, o, attempt));
}

TEST(FleetBackoff, JitterVariesWithSeedAndOutputAndStaysBounded) {
  SysecoOptions a;
  a.seed = 1;
  SysecoOptions b;
  b.seed = 2;
  bool seedMatters = false;
  bool outputMatters = false;
  for (std::uint32_t o = 0; o < 64; ++o) {
    const double va = retryBackoffSeconds(a, o, 1);
    EXPECT_GE(va, backoffBaseSeconds(a, 1));
    EXPECT_LE(va, 1.5 * backoffBaseSeconds(a, 1));
    if (va != retryBackoffSeconds(b, o, 1)) seedMatters = true;
    if (va != retryBackoffSeconds(a, o + 64, 1)) outputMatters = true;
  }
  EXPECT_TRUE(seedMatters);
  EXPECT_TRUE(outputMatters);
  // The exponential base caps at 5 s however many attempts failed.
  EXPECT_LE(retryBackoffSeconds(a, 0, 1000), 7.5);
}

// --- Dispatch knobs at the CLI surface ---------------------------------------

#ifdef SYSECO_CLI_BIN

/// Runs the CLI with `args`, discarding its output; returns the exit code.
int runCli(const std::string& args) {
  const std::string cmd =
      std::string(SYSECO_CLI_BIN) + " " + args + " > /dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : 128 + WTERMSIG(rc);
}

TEST(FleetOptions, InvalidFleetKnobsAreRejectedNotUndefined) {
  // A runnable sweep: without the parse-time checks it would degrade to the
  // local pool and exit 0, so exit 3 proves each knob was rejected.
  const std::string dir = uniqueTestDir("fleet", "knobs");
  ASSERT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);
  const std::string data = std::string(SYSECO_SOURCE_DIR) + "/data/";
  std::ofstream(dir + "/manifest.json")
      << "{\"cases\": [{\"name\": \"alu\", \"impl\": \"" << data
      << "alu_impl.blif\", \"spec\": \"" << data << "alu_spec.blif\"}]}\n";
  const std::string sweep = "--batch '" + dir + "/manifest.json' " +
                            "--batch-state '" + dir + "/state' ";
  const std::string batch = sweep + "--workers 127.0.0.1:1 ";
  EXPECT_EQ(runCli(batch + "--fleet-lease-ms 0"), 3) << "zero lease";
  EXPECT_EQ(runCli(batch + "--fleet-connect-timeout-ms 0"), 3)
      << "zero connect timeout";
  EXPECT_EQ(runCli(batch + "--fleet-min-workers 0"), 3) << "zero min workers";
  EXPECT_EQ(runCli(batch + "--fleet-min-workers banana"), 3) << "junk value";
  EXPECT_EQ(runCli(sweep + "--workers ,"), 3) << "empty endpoint list";
  struct stat st;
  EXPECT_NE(::stat((dir + "/state").c_str(), &st), 0)
      << "a rejected option must not start the sweep";
}

#endif  // SYSECO_CLI_BIN

}  // namespace
}  // namespace syseco
