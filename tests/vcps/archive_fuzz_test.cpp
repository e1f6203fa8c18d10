// Corruption sweep for the archive reader: every single-byte mutation of
// a valid archive must either be rejected (the expected case) or decode
// to a structurally valid archive — never crash, hang, or return
// something inconsistent. Truncations at every length must be rejected.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "common/bit_array.h"
#include "common/rng.h"
#include "vcps/archive.h"

namespace vlm::vcps {
namespace {

std::string valid_archive_bytes() {
  PeriodArchive archive;
  archive.period = 9;
  for (std::uint64_t id = 1; id <= 2; ++id) {
    common::BitArray bits(256);
    bits.set(3 * id);
    bits.set(100 + id);
    RsuReport report;
    report.rsu = core::RsuId{id};
    report.period = 9;
    report.counter = 2 + id;
    report.array_size = bits.size();
    report.bits = bits.to_bytes();
    archive.reports.push_back(std::move(report));
  }
  std::stringstream stream;
  write_archive(stream, archive);
  return stream.str();
}

TEST(ArchiveFuzz, EverySingleByteFlipIsHandled) {
  const std::string valid = valid_archive_bytes();
  int rejected = 0, accepted = 0;
  for (std::size_t offset = 0; offset < valid.size(); ++offset) {
    for (int flip : {0x01, 0x80, 0xFF}) {
      std::string mutated = valid;
      mutated[offset] = static_cast<char>(mutated[offset] ^ flip);
      std::stringstream stream(mutated);
      try {
        const PeriodArchive archive = read_archive(stream);
        // Accepted: must still be structurally sound (this can only
        // happen if the flip cancelled out, which XOR never does — but a
        // future format change could make benign bytes possible, so
        // validate rather than assert unreachable).
        for (const RsuReport& r : archive.reports) {
          EXPECT_EQ(r.bits.size(), (r.array_size + 7) / 8);
        }
        ++accepted;
      } catch (const std::runtime_error&) {
        ++rejected;
      }
    }
  }
  // Every checksum step is a bijection of its word, so every flip must
  // be caught.
  EXPECT_EQ(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(ArchiveFuzz, EveryTruncationIsRejected) {
  const std::string valid = valid_archive_bytes();
  for (std::size_t keep = 0; keep < valid.size(); ++keep) {
    std::stringstream stream(valid.substr(0, keep));
    EXPECT_THROW((void)read_archive(stream), std::runtime_error)
        << "truncation at " << keep << " bytes";
  }
}

TEST(ArchiveFuzz, RandomGarbageIsRejectedQuickly) {
  common::Xoshiro256ss rng(17);
  for (int round = 0; round < 200; ++round) {
    std::string garbage(8 + rng.uniform(256), '\0');
    for (char& ch : garbage) {
      ch = static_cast<char>(rng.uniform(256));
    }
    std::stringstream stream(garbage);
    EXPECT_THROW((void)read_archive(stream), std::runtime_error);
  }
}

TEST(ArchiveFuzz, TrailingJunkAfterValidArchiveIsIgnored) {
  // Stream framing: the reader consumes exactly one archive; bytes after
  // it are left for the caller (enables multi-archive files).
  const std::string valid = valid_archive_bytes();
  std::stringstream stream(valid + valid);  // two archives back to back
  const PeriodArchive first = read_archive(stream);
  const PeriodArchive second = read_archive(stream);
  EXPECT_EQ(first.reports.size(), 2u);
  EXPECT_EQ(second.reports.size(), 2u);
}

}  // namespace
}  // namespace vlm::vcps
