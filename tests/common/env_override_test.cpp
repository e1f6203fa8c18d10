// The VLM_KERNELS / VLM_DECODE overrides route through one parser; these
// tests pin its contract — exact matching, unset/empty and unrecognized
// both fall back, and the unrecognized warning fires at most once per
// (variable, value) pair — through the text seam so no test mutates the
// process environment.
#include "common/env_override.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace vlm::common {
namespace {

constexpr EnvEnumChoice kChoices[] = {{"scalar", 0}, {"batch", 1}, {"auto", 2}};

TEST(EnvOverride, MatchesRecognizedValuesExactly) {
  EXPECT_EQ(parse_env_enum_text("VLM_TEST_A", "scalar", kChoices, -1), 0);
  EXPECT_EQ(parse_env_enum_text("VLM_TEST_A", "batch", kChoices, -1), 1);
  EXPECT_EQ(parse_env_enum_text("VLM_TEST_A", "auto", kChoices, -1), 2);
}

TEST(EnvOverride, UnsetAndEmptyKeepTheFallback) {
  EXPECT_EQ(parse_env_enum_text("VLM_TEST_B", nullptr, kChoices, -7), -7);
  EXPECT_EQ(parse_env_enum_text("VLM_TEST_B", "", kChoices, 42), 42);
}

TEST(EnvOverride, MatchingIsCaseAndAffixSensitive) {
  EXPECT_EQ(parse_env_enum_text("VLM_TEST_C", "Batch", kChoices, -1), -1);
  EXPECT_EQ(parse_env_enum_text("VLM_TEST_C", "batchy", kChoices, -1), -1);
  EXPECT_EQ(parse_env_enum_text("VLM_TEST_C", " batch", kChoices, -1), -1);
}

TEST(EnvOverride, UnrecognizedValueWarnsOncePerPairAndFallsBack) {
  // Capture stderr across three lookups of the same bad value plus one of
  // a different value: warn-once is keyed on (var, value), so exactly two
  // warnings must appear.
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(parse_env_enum_text("VLM_TEST_D", "bogus", kChoices, 9), 9);
  EXPECT_EQ(parse_env_enum_text("VLM_TEST_D", "bogus", kChoices, 9), 9);
  EXPECT_EQ(parse_env_enum_text("VLM_TEST_D", "bogus", kChoices, 9), 9);
  EXPECT_EQ(parse_env_enum_text("VLM_TEST_D", "other", kChoices, 9), 9);
  const std::string captured = ::testing::internal::GetCapturedStderr();
  std::size_t warnings = 0;
  for (std::size_t pos = captured.find("vlm: warning:");
       pos != std::string::npos;
       pos = captured.find("vlm: warning:", pos + 1)) {
    ++warnings;
  }
  EXPECT_EQ(warnings, 2u) << captured;
  // The warning names the accepted spellings so a user can fix the export
  // without reading source.
  EXPECT_NE(captured.find("scalar|batch|auto"), std::string::npos) << captured;
  EXPECT_NE(captured.find("VLM_TEST_D='bogus'"), std::string::npos) << captured;
}

TEST(EnvOverride, ReadsTheRealEnvironment) {
  // setenv/getenv round trip through parse_env_enum itself — a variable
  // name no other test (or the warn-once set) touches.
  ASSERT_EQ(setenv("VLM_TEST_E", "batch", 1), 0);
  EXPECT_EQ(parse_env_enum("VLM_TEST_E", kChoices, -1), 1);
  ASSERT_EQ(unsetenv("VLM_TEST_E"), 0);
  EXPECT_EQ(parse_env_enum("VLM_TEST_E", kChoices, -1), -1);
}

}  // namespace
}  // namespace vlm::common
