// End-to-end test of the vinestalk_cli driver binary: pipes a command
// script through the real executable and checks the observable output.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <memory>
#include <string>

namespace vstest {
namespace {

#ifndef VS_CLI_PATH
#error "VS_CLI_PATH must be defined by the build"
#endif

std::string run_cli(const std::string& script) {
  const std::string cmd =
      std::string("printf '%s' '") + script + "' | " + VS_CLI_PATH + " 2>&1";
  std::unique_ptr<FILE, int (*)(FILE*)> pipe(popen(cmd.c_str(), "r"), pclose);
  EXPECT_NE(pipe, nullptr);
  std::string out;
  std::array<char, 256> buf{};
  while (fgets(buf.data(), buf.size(), pipe.get()) != nullptr) {
    out += buf.data();
  }
  return out;
}

TEST(Cli, TrackMoveFind) {
  const std::string out = run_cli(
      "world 9 3\n"
      "evader 4 4\n"
      "move 0 5 4\n"
      "find 0 0 0\n"
      "check 0\n"
      "stats\n"
      "quit\n");
  EXPECT_NE(out.find("world 9x9 base 3"), std::string::npos) << out;
  EXPECT_NE(out.find("evader 0 placed"), std::string::npos) << out;
  EXPECT_NE(out.find("now at (5,4)"), std::string::npos) << out;
  EXPECT_NE(out.find("found at (5,4)"), std::string::npos) << out;
  EXPECT_NE(out.find("consistent"), std::string::npos) << out;
  EXPECT_NE(out.find("moves:"), std::string::npos) << out;
}

TEST(Cli, FailAndRepair) {
  const std::string out = run_cli(
      "world 9 3\n"
      "evader 2 2\n"
      "fail 2 2\n"
      "tick 0\n"
      "tick 0\n"
      "check 0\n"
      "find 8 8 0\n"
      "quit\n");
  // Two ticks: the first may race the VSA restart, the second must heal.
  EXPECT_NE(out.find("failed VSA at (2,2)"), std::string::npos) << out;
  EXPECT_NE(out.find("consistent"), std::string::npos) << out;
  EXPECT_NE(out.find("found at (2,2)"), std::string::npos) << out;
}

TEST(Cli, ErrorsAreReportedNotFatal) {
  const std::string out = run_cli(
      "find 0 0 0\n"   // no world yet
      "world 9 3\n"
      "evader 4 4\n"
      "move 0 8 8\n"   // teleport rejected
      "show 0\n"
      "quit\n");
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
  EXPECT_NE(out.find("neighbouring region"), std::string::npos) << out;
  EXPECT_NE(out.find("tracking path"), std::string::npos) << out;
}

TEST(Cli, SweepBeforeWorldIsAnError) {
  // The sweep shares the session's hierarchy, so it must refuse to run
  // before `world` built one, and the session must go on afterwards.
  const std::string out = run_cli(
      "sweep 2 2 1\n"
      "world 9 3\n"
      "sweep 2 2 1\n"
      "quit\n");
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
  EXPECT_NE(out.find("first"), std::string::npos) << out;
  EXPECT_NE(out.find("sweep total:"), std::string::npos) << out;
}

TEST(Cli, WalkCommand) {
  const std::string out = run_cli(
      "world 27 3\n"
      "evader 13 13\n"
      "walk 0 40 7\n"
      "check 0\n"
      "quit\n");
  EXPECT_NE(out.find("walked 40 steps"), std::string::npos) << out;
  EXPECT_NE(out.find("consistent"), std::string::npos) << out;
}

TEST(Cli, MonitorReattachSurvivesAndStillDetects) {
  // `monitor` twice on one world replaces the watchdog; the sends of the
  // following walk must reach only the live one (the first watchdog's
  // hooks used to dangle), and a seeded corruption is still caught.
  const std::string out = run_cli(
      "world 27 3\n"
      "evader 13 13\n"
      "monitor 0 cadence 2000\n"
      "monitor 0 every\n"
      "walk 0 6 42\n"
      "corrupt 0 2 2\n"
      "quit\n");
  EXPECT_NE(out.find("watchdog on target 0 (every-change)"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("walked 6 steps"), std::string::npos) << out;
  EXPECT_NE(out.find("VIOLATION"), std::string::npos) << out;
}

TEST(Cli, MonitorRejectsCadenceWithUnitSuffix) {
  const std::string out = run_cli(
      "world 9 3\n"
      "evader 4 4\n"
      "monitor 0 cadence 50ms\n"
      "quit\n");
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
  EXPECT_NE(out.find("cadence must be a bare count"), std::string::npos)
      << out;
  EXPECT_EQ(out.find("watchdog on target"), std::string::npos) << out;
}

}  // namespace
}  // namespace vstest
