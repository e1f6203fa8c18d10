// Shared parser for the VLM_* environment overrides.
//
// VLM_KERNELS and VLM_DECODE follow the same contract: an unset or empty
// variable keeps the caller's choice, a recognized value pins one, and an
// unrecognized value degrades loudly — a warning on stderr naming the
// accepted spellings — instead of crashing, so one stale export works
// across a heterogeneous CI fleet. This helper is the single
// implementation of that contract; the per-subsystem code only supplies
// its choice table and interprets the returned value.
#pragma once

#include <span>

namespace vlm::common {

// One recognized value of an environment-variable enum.
struct EnvEnumChoice {
  const char* name;
  int value;
};

// Reads getenv(var) and matches it against `choices` (exact string
// compare). Returns the matched choice's value; unset or empty returns
// `fallback`. An unrecognized value also returns `fallback`, warning on
// stderr once per (variable, value) pair — repeated lookups of the same
// bad export stay silent.
int parse_env_enum(const char* var, std::span<const EnvEnumChoice> choices,
                   int fallback);

// Test seam: identical matching and warn-once policy over caller-supplied
// text instead of the environment (nullptr/empty behave like unset).
int parse_env_enum_text(const char* var, const char* text,
                        std::span<const EnvEnumChoice> choices, int fallback);

}  // namespace vlm::common
