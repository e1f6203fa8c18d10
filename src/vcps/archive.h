// Binary persistence for measurement periods.
//
// RSU reports are the system of record: a regulator re-running an
// estimate, or a study aggregating months of periods, needs them on
// disk. The format is deliberately simple and self-checking:
//
//   [magic "VLMA"] [u32 version] [u64 period] [u32 report_count]
//   repeated: [u64 rsu_id] [u64 counter] [u64 array_size]
//             [u32 byte_count] [bytes...]
//   [u64 checksum over everything before it]
//
// All integers little-endian. The checksum is integrity against
// corruption and truncation, not authentication. Readers validate magic,
// version, counts, sizes, and the checksum, and reject anything
// inconsistent with a descriptive exception.
//
// Version 2 (the only version written). Each field above, magic through
// the last report's bytes, is absorbed in order as its bytes read as
// little-endian 64-bit words (the last word zero-padded), followed by one
// word holding the field's length in bytes. Word j of that stream, j
// counted from 0 across the whole archive, steps lane j mod 4:
//
//   lane[j mod 4] = mix64(lane[j mod 4] ^ word_j)
//   lane[i] starts at 0xA5A5A5A55A5A5A5A + i * 0x9E3779B97F4A7C15 (mod 2^64)
//   checksum = h4, where h0 = 0 and h(i+1) = mix64(h(i) ^ lane[i])
//
// mix64 is the splitmix64 finalizer (common/hashing.h), a bijection, so
// every step is a bijection of its word and of its lane: changing any
// one word of the stream always changes the checksum, and the four
// independent lanes let a word-wise pass run at memory speed.
//
// Version 1 (still read, never written): the same layout with a serial
// byte chain, state = mix64(state ^ (byte + 0x9E3779B97F4A7C15)) for
// every byte from state 0xA5A5A5A55A5A5A5A; the checksum is the final
// state. Any other version is rejected.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "vcps/messages.h"

namespace vlm::vcps {

struct PeriodArchive {
  std::uint64_t period = 0;
  std::vector<RsuReport> reports;
};

// Stream interface (unit-testable without touching the filesystem).
void write_archive(std::ostream& out, const PeriodArchive& archive);
PeriodArchive read_archive(std::istream& in);

// File convenience wrappers. Throw std::runtime_error on I/O failure.
void save_archive(const std::string& path, const PeriodArchive& archive);
PeriodArchive load_archive(const std::string& path);

}  // namespace vlm::vcps
