// The CLI's option and environment surface fails closed: an option the
// engine no longer has is a usage error, a malformed fault plan - or the
// retired one-shot fault variable - stops the run before any mode starts
// instead of running fault-free, and an unreadable file is an input error
// in client mode as it is in a local run.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "test_dirs.hpp"

#ifndef SYSECO_SOURCE_DIR
#define SYSECO_SOURCE_DIR "."
#endif

namespace syseco {
namespace {

#ifdef SYSECO_CLI_BIN

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

/// Runs the CLI on the sample ALU pair plus `args`, with `env` prefixed to
/// the command line; returns the exit code, output captured in `logPath`.
int runCli(const std::string& env, const std::string& args,
           const std::string& logPath) {
  const std::string data = std::string(SYSECO_SOURCE_DIR) + "/data/";
  const std::string cmd = env + (env.empty() ? "" : " ") + SYSECO_CLI_BIN +
                          " --impl " + data + "alu_impl.blif --spec " + data +
                          "alu_spec.blif " + args + " > '" + logPath +
                          "' 2>&1";
  const int rc = std::system(cmd.c_str());
  if (rc == -1) return -1;
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : 128 + WTERMSIG(rc);
}

std::string freshDir(const std::string& name) {
  const std::string dir = uniqueTestDir("cli", name);
  EXPECT_EQ(::mkdir(dir.c_str(), 0755), 0);
  return dir;
}

// --- Retired engine knobs -------------------------------------------------

/// Each parameter is a retired flag followed by a value it used to take.
class CliRetiredFlag : public ::testing::TestWithParam<const char*> {};

TEST_P(CliRetiredFlag, IsAnUnknownOptionUsageError) {
  const std::string dir = freshDir("retired");
  const std::string args = GetParam();
  const std::string flag = args.substr(0, args.find(' '));
  EXPECT_EQ(runCli("", args, dir + "/log"), 2);  // kExitUsage
  const std::string log = slurp(dir + "/log");
  EXPECT_NE(log.find("unknown option '" + flag + "'"), std::string::npos)
      << log;
}

INSTANTIATE_TEST_SUITE_P(
    Flags, CliRetiredFlag,
    ::testing::Values("--rank structural", "--patch-minimize off",
                      "--bdd-reorder off", "--bdd-cache-bits 16",
                      "--bdd-reorder-threshold 4096",
                      "--fault-plan plan.txt"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name;
      for (const char* p = info.param; *p != '\0' && *p != ' '; ++p)
        if (*p != '-') name += *p;
      return name;
    });

// --- SYSECO_FAULT_PLAN -----------------------------------------------------

TEST(CliFaultInject, MisspelledKindFailsClosedBeforeTheRun) {
  const std::string dir = freshDir("inject");
  std::ofstream(dir + "/typo.plan") << "# crash loop\n"
                                    << "from 0 journal.checkpoint crsh\n";
  const int rc = runCli("SYSECO_FAULT_PLAN='" + dir + "/typo.plan'",
                        "--journal " + dir + "/j", dir + "/log");
  EXPECT_EQ(rc, 3);  // kExitInvalidInput
  const std::string log = slurp(dir + "/log");
  EXPECT_NE(log.find("line 2: unknown fault kind 'crsh'"), std::string::npos)
      << log;
  // Rejected before mode dispatch: the engine never opened its journal.
  struct stat st {};
  EXPECT_NE(::stat((dir + "/j").c_str(), &st), 0);
}

TEST(CliFaultInject, RetiredVariableFailsClosedNamingThePlanForm) {
  const std::string dir = freshDir("retired_env");
  const int rc = runCli("SYSECO_FAULT_INJECT='journal.checkpoint=crash'",
                        "--journal " + dir + "/j", dir + "/log");
  // kExitInvalidInput: ignoring it would turn a crash test into a pass.
  EXPECT_EQ(rc, 3);
  const std::string log = slurp(dir + "/log");
  EXPECT_NE(log.find("SYSECO_FAULT_PLAN"), std::string::npos) << log;
  EXPECT_NE(log.find("from <skip> <site> <kind>"), std::string::npos) << log;
  struct stat st {};
  EXPECT_NE(::stat((dir + "/j").c_str(), &st), 0);
}

// --- Client mode (--connect) -----------------------------------------------

TEST(CliClient, UnreadableSubmissionFileIsAnInputError) {
  const std::string dir = freshDir("client_missing");
  // The files are read before connecting, so no daemon is needed: port 1
  // would refuse the connection (exit 2) if the client got that far.
  for (const std::string flag : {"--impl", "--spec", "--submit-fault"}) {
    const std::string log = dir + "/" + flag.substr(2) + ".log";
    const int rc = runCli("", "--connect 127.0.0.1:1 " + flag + " " + dir +
                                  "/missing",
                          log);
    EXPECT_EQ(rc, 3) << flag << ": " << slurp(log);  // kExitInvalidInput
    EXPECT_NE(slurp(log).find("cannot open '" + dir + "/missing'"),
              std::string::npos)
        << flag << ": " << slurp(log);
  }
}

#endif  // SYSECO_CLI_BIN

}  // namespace
}  // namespace syseco
