// Crash-safe run journal: framing, checksums, atomic writes, exact netlist
// snapshots, and the patch serialization round-trip (journal snapshot ->
// restore -> SAT-equivalence against the in-memory patch, for exact,
// degraded and cone-clone fallback patches alike).

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cnf/encode.hpp"
#include "eco/patch.hpp"
#include "eco/resume.hpp"
#include "eco/syseco.hpp"
#include "gen/eco_case.hpp"
#include "io/blif_io.hpp"
#include "io/journal_io.hpp"
#include "util/atomic_file.hpp"
#include "util/crc32.hpp"
#include "util/fault.hpp"
#include "util/journal.hpp"
#include "util/rng.hpp"
#include "test_dirs.hpp"

#ifndef SYSECO_SOURCE_DIR
#define SYSECO_SOURCE_DIR "."
#endif

namespace syseco {
namespace {

std::string testDir(const std::string& name) {
  return uniqueTestDir("journal", name);
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

Netlist aluImpl() {
  return loadBlif(std::string(SYSECO_SOURCE_DIR) + "/data/alu_impl.blif");
}
Netlist aluSpec() {
  return loadBlif(std::string(SYSECO_SOURCE_DIR) + "/data/alu_spec.blif");
}

// --- CRC-32 and atomic replacement ----------------------------------------

TEST(Crc32, MatchesTheStandardCheckValue) {
  // The canonical IEEE 802.3 check value: crc32("123456789").
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0x00000000u);
  EXPECT_NE(crc32("a"), crc32("b"));
}

TEST(AtomicFile, WritesAndReplacesWithoutTornContent) {
  const std::string dir = testDir("atomic");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  const std::string path = dir + "/report.json";

  ASSERT_TRUE(writeFileAtomic(path, "first\n").isOk());
  EXPECT_EQ(slurp(path), "first\n");
  ASSERT_TRUE(writeFileAtomic(path, "second, longer content\n").isOk());
  EXPECT_EQ(slurp(path), "second, longer content\n");

  // No temporary siblings left behind.
  const std::string countFile = dir + "/tmpcount";
  std::string cmd = "ls '" + dir + "'/*.tmp.* 2>/dev/null | wc -l > '" +
                    countFile + "'";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  EXPECT_EQ(slurp(countFile), "0\n");
}

TEST(AtomicFile, FailsCleanlyOnUnwritableDirectory) {
  const Status s = writeFileAtomic("/nonexistent-dir-xyz/file", "x");
  EXPECT_FALSE(s.isOk());
}

// --- Framing layer --------------------------------------------------------

TEST(JournalFraming, AppendScanRoundTripsInOrder) {
  const std::string dir = testDir("roundtrip");
  Result<JournalWriter> w = JournalWriter::create(dir);
  ASSERT_TRUE(w.isOk());
  const std::vector<std::string> payloads = {
      "{\"a\":1}", "{\"b\":\"with \\\"quotes\\\"\"}", "{}", "{\"c\":[1,2,3]}"};
  for (const std::string& p : payloads)
    ASSERT_TRUE(w.value().append(p).isOk());

  Result<JournalScan> scan = scanJournal(dir);
  ASSERT_TRUE(scan.isOk());
  EXPECT_TRUE(scan.value().markerValid);
  EXPECT_EQ(scan.value().committedRecords, payloads.size());
  ASSERT_EQ(scan.value().frames.size(), payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(scan.value().frames[i].payload, payloads[i]);
    EXPECT_EQ(scan.value().frames[i].line, i + 1);
  }
  EXPECT_TRUE(scan.value().diagnostics.empty());
}

TEST(JournalFraming, MissingDirectoryScansEmpty) {
  Result<JournalScan> scan = scanJournal(testDir("never-created"));
  ASSERT_TRUE(scan.isOk());
  EXPECT_TRUE(scan.value().frames.empty());
}

TEST(JournalFraming, TornFinalRecordIsDroppedWithDiagnostic) {
  const std::string dir = testDir("torn");
  {
    Result<JournalWriter> w = JournalWriter::create(dir);
    ASSERT_TRUE(w.isOk());
    ASSERT_TRUE(w.value().append("{\"keep\":1}").isOk());
    ASSERT_TRUE(w.value().append("{\"keep\":2}").isOk());
    ASSERT_TRUE(w.value().append("{\"torn\":3}").isOk());
  }
  // Tear the final record mid-payload, as a crash mid-write would.
  const std::string path = journalDataPath(dir);
  std::string data = slurp(path);
  ASSERT_GT(data.size(), 6u);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << data.substr(0, data.size() - 6);

  Result<JournalScan> scan = scanJournal(dir);
  ASSERT_TRUE(scan.isOk());
  ASSERT_EQ(scan.value().frames.size(), 2u);
  EXPECT_EQ(scan.value().frames[1].payload, "{\"keep\":2}");
  ASSERT_FALSE(scan.value().diagnostics.empty());
  bool tornNoted = false;
  for (const std::string& d : scan.value().diagnostics)
    tornNoted |= d.find("torn final record") != std::string::npos;
  EXPECT_TRUE(tornNoted);
  // The marker now attests more records than survived - called out.
  bool lossNoted = false;
  for (const std::string& d : scan.value().diagnostics)
    lossNoted |= d.find("lost committed records") != std::string::npos;
  EXPECT_TRUE(lossNoted);

  // A resumed writer physically removes the torn tail before appending.
  Result<JournalWriter> w = JournalWriter::resume(dir, scan.value());
  ASSERT_TRUE(w.isOk());
  ASSERT_TRUE(w.value().append("{\"fresh\":4}").isOk());
  Result<JournalScan> rescan = scanJournal(dir);
  ASSERT_TRUE(rescan.isOk());
  ASSERT_EQ(rescan.value().frames.size(), 3u);
  EXPECT_EQ(rescan.value().frames.back().payload, "{\"fresh\":4}");
  EXPECT_TRUE(rescan.value().diagnostics.empty());
}

TEST(JournalFraming, BitFlippedRecordIsDroppedOthersSurvive) {
  const std::string dir = testDir("bitflip");
  {
    Result<JournalWriter> w = JournalWriter::create(dir);
    ASSERT_TRUE(w.isOk());
    ASSERT_TRUE(w.value().append("{\"first\":1}").isOk());
    ASSERT_TRUE(w.value().append("{\"second\":2}").isOk());
    ASSERT_TRUE(w.value().append("{\"third\":3}").isOk());
  }
  const std::string path = journalDataPath(dir);
  std::string data = slurp(path);
  const std::size_t hit = data.find("second");
  ASSERT_NE(hit, std::string::npos);
  data[hit] ^= 0x40;  // flip one payload bit in the middle record
  std::ofstream(path, std::ios::binary | std::ios::trunc) << data;

  Result<JournalScan> scan = scanJournal(dir);
  ASSERT_TRUE(scan.isOk());
  ASSERT_EQ(scan.value().frames.size(), 2u);
  EXPECT_EQ(scan.value().frames[0].payload, "{\"first\":1}");
  EXPECT_EQ(scan.value().frames[1].payload, "{\"third\":3}");
  bool checksumNoted = false;
  for (const std::string& d : scan.value().diagnostics)
    checksumNoted |= d.find("checksum mismatch") != std::string::npos;
  EXPECT_TRUE(checksumNoted);
}

// --- Exact netlist snapshots ----------------------------------------------

TEST(RawNetlist, RoundTripIsBitExactIncludingDeadGates) {
  Netlist impl = aluImpl();
  // Manufacture dead gates the way the engine does: rewire, then sweep.
  impl.rewireOutput(0, impl.outputNet(1));
  const std::size_t killed = impl.sweepDeadLogic();
  EXPECT_GT(killed, 0u);

  const std::string dump = impl.dumpRawString();
  Result<Netlist> back = Netlist::restoreRawString(dump);
  ASSERT_TRUE(back.isOk()) << back.status().toString();
  // Bit-exact: the re-dump is byte-identical, ids and dead flags included.
  EXPECT_EQ(back.value().dumpRawString(), dump);
  EXPECT_EQ(back.value().numGatesTotal(), impl.numGatesTotal());
  EXPECT_EQ(back.value().numNetsTotal(), impl.numNetsTotal());
  EXPECT_TRUE(back.value().isWellFormed());
}

TEST(RawNetlist, RoundTripsGeneratedCases) {
  CaseRecipe r;
  r.name = "journal-roundtrip";
  r.spec = SpecParams{2, 4, 2, 2, 3, 2, 2, 2};
  r.mutations = 2;
  r.targetRevisedFraction = 0.3;
  r.optRounds = 2;
  r.seed = 11;
  const EcoCase c = makeCase(r);
  for (const Netlist* nl : {&c.impl, &c.spec}) {
    const std::string dump = nl->dumpRawString();
    Result<Netlist> back = Netlist::restoreRawString(dump);
    ASSERT_TRUE(back.isOk()) << back.status().toString();
    EXPECT_EQ(back.value().dumpRawString(), dump);
  }
}

TEST(RawNetlist, CorruptSnapshotsAreRejectedNotCrashed) {
  const std::string good = aluImpl().dumpRawString();
  const std::vector<std::string> bad = {
      "",
      "not-a-snapshot\n",
      "syseco-raw-netlist-v1\n",                      // truncated
      "syseco-raw-netlist-v1\ncounts 1 1 1 1\nend\n", // missing sections
      good.substr(0, good.size() / 2),                // torn in half
      good + "trailing garbage\n",
  };
  for (const std::string& text : bad) {
    Result<Netlist> r = Netlist::restoreRawString(text);
    EXPECT_FALSE(r.isOk()) << "accepted: " << text.substr(0, 40);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidInput);
  }
  // Out-of-range ids must be caught by validation, not trusted.
  std::string tampered = good;
  const std::size_t pos = tampered.find("\ngate ");
  ASSERT_NE(pos, std::string::npos);
  tampered.replace(pos, 6, "\ngate and 999999 ");
  EXPECT_FALSE(Netlist::restoreRawString(tampered).isOk());
}

// --- JSON record layer ----------------------------------------------------

TEST(JournalJson, ParsesScalarsArraysAndNestedObjects) {
  Result<JsonValue> v = parseJson(
      "{\"i\":-42,\"f\":1.5,\"s\":\"a\\u0041\\n\",\"b\":true,"
      "\"arr\":[1,[2,3]],\"o\":{\"k\":null}}");
  ASSERT_TRUE(v.isOk()) << v.status().toString();
  const JsonValue* i = v.value().find("i");
  ASSERT_NE(i, nullptr);
  EXPECT_TRUE(i->isInteger);
  EXPECT_EQ(i->integer, -42);
  const JsonValue* s = v.value().find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->str, "aA\n");
  const JsonValue* arr = v.value().find("arr");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->items.size(), 2u);
  EXPECT_EQ(arr->items[1].items.size(), 2u);
}

TEST(JournalJson, RejectsMalformedDocuments) {
  for (const char* text :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\":1}x", "\"\\q\"", "{'a':1}",
        "nul", "01", "[1 2]", "\"raw\ncontrol\""}) {
    EXPECT_FALSE(parseJson(text).isOk()) << text;
  }
  // Adversarial nesting hits the depth cap, not the stack guard page.
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_FALSE(parseJson(deep).isOk());
}

TEST(JournalJson, RunStartSerializationRoundTrips) {
  const std::string dir = testDir("runstart");
  JournalRunStart rs;
  rs.engine = "syseco";
  rs.implCrc = 0xdeadbeef;
  rs.specCrc = 0x12345678;
  rs.optionsFingerprint = "syseco-options-v1;x=1";
  rs.seed = 0xfeedfacecafebeefULL;
  rs.failingOutputsBefore = 3;
  rs.order = {2, 0, 5};
  {
    Result<JournalWriter> w = JournalWriter::create(dir);
    ASSERT_TRUE(w.isOk());
    ASSERT_TRUE(w.value().append(serializeRunStart(rs)).isOk());
  }
  Result<JournalContents> c = readJournal(dir);
  ASSERT_TRUE(c.isOk());
  ASSERT_TRUE(c.value().hasRunStart);
  EXPECT_EQ(c.value().runStart.engine, rs.engine);
  EXPECT_EQ(c.value().runStart.implCrc, rs.implCrc);
  EXPECT_EQ(c.value().runStart.specCrc, rs.specCrc);
  EXPECT_EQ(c.value().runStart.optionsFingerprint, rs.optionsFingerprint);
  EXPECT_EQ(c.value().runStart.seed, rs.seed);
  EXPECT_EQ(c.value().runStart.failingOutputsBefore, 3u);
  EXPECT_EQ(c.value().runStart.order, rs.order);
}

// --- Patch serialization round-trip (exact / degraded / fallback) ---------

class PatchRoundTrip : public ::testing::Test {
 protected:
  void SetUp() override { fault::Injector::instance().reset(); }
  void TearDown() override { fault::Injector::instance().reset(); }

  /// Runs the engine with a journaling checkpoint hook, re-reads every
  /// record from disk, restores each snapshot and proves - with fresh SAT
  /// miters - that the restored patch rectifies every claimed output, and
  /// that the snapshot is bit-identical to the in-memory working netlist.
  void runAndRoundTrip(const Netlist& impl, const Netlist& spec,
                       bool expectDegradedOrFallback) {
    const std::string dir =
        testDir(::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
    Result<JournalWriter> w = JournalWriter::create(dir);
    ASSERT_TRUE(w.isOk());

    std::vector<std::string> inMemoryDumps;
    SysecoOptions opt;
    opt.planHook = [&](const std::vector<std::uint32_t>& order,
                       std::size_t failingBefore) {
      ASSERT_TRUE(w.value()
                      .append(serializeRunStart(makeRunStartRecord(
                          impl, spec, opt, order, failingBefore)))
                      .isOk());
    };
    opt.checkpointHook = [&](const RunCheckpoint& cp) {
      inMemoryDumps.push_back(cp.working.dumpRawString());
      EXPECT_TRUE(
          w.value().append(serializeOutputRecord(makeOutputRecord(cp))).isOk());
      return true;
    };
    SysecoDiagnostics diag;
    const EcoResult res = runSyseco(impl, spec, opt, &diag);
    ASSERT_TRUE(res.success);
    ASSERT_FALSE(diag.outputs.empty());
    if (expectDegradedOrFallback) {
      // The armed fault must actually push outputs off the exact path, or
      // this test would only re-cover the exact case.
      bool nonExact = false;
      for (const OutputReport& r : diag.outputs)
        nonExact |= r.status != OutputRectStatus::kExact || r.degradeSteps > 0;
      EXPECT_TRUE(nonExact);
    }

    Result<JournalContents> contents = readJournal(dir);
    ASSERT_TRUE(contents.isOk());
    ASSERT_EQ(contents.value().outputs.size(), inMemoryDumps.size());
    for (std::size_t i = 0; i < contents.value().outputs.size(); ++i) {
      const JournalOutputRecord& rec = contents.value().outputs[i];
      // Bit-exact against the in-memory patch at the same checkpoint.
      EXPECT_EQ(rec.netlistDump, inMemoryDumps[i]);
      Result<Netlist> restored = Netlist::restoreRawString(rec.netlistDump);
      ASSERT_TRUE(restored.isOk()) << restored.status().toString();
      const Netlist& rn = restored.value();
      EXPECT_EQ(rn.dumpRawString(), inMemoryDumps[i]);

      // Independent SAT proof per claimed output - the journal's own
      // verdict ("exact"/"degraded"/"fallback") is never what certifies.
      PairEncoding pe(rn, spec);
      Rng rng(0x5eedu);
      for (const JournalOutputReport& jr : rec.reports) {
        const std::uint32_t op = spec.findOutput(jr.name);
        ASSERT_NE(op, kNullId) << jr.name;
        EXPECT_EQ(pe.solveDiffSwept(jr.output, op, -1, rng),
                  Solver::Result::Unsat)
            << "journaled patch for output " << jr.name
            << " is not actually a rectification";
      }
    }
  }
};

TEST_F(PatchRoundTrip, ExactPatchesSurviveTheJournal) {
  runAndRoundTrip(aluImpl(), aluSpec(), /*expectDegradedOrFallback=*/false);
}

TEST_F(PatchRoundTrip, DegradedPatchesSurviveTheJournal) {
  fault::Injector::instance().arm("syseco.pointsets", fault::Kind::kBddBlowup);
  runAndRoundTrip(aluImpl(), aluSpec(), /*expectDegradedOrFallback=*/true);
}

TEST_F(PatchRoundTrip, ConeCloneFallbackPatchesSurviveTheJournal) {
  fault::Injector::instance().arm("syseco.sampling",
                                  fault::Kind::kBudgetExhausted);
  runAndRoundTrip(aluImpl(), aluSpec(), /*expectDegradedOrFallback=*/true);
}

}  // namespace
}  // namespace syseco
