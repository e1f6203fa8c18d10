#include "vcps/archive.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bit_array.h"
#include "common/hashing.h"
#include "common/rng.h"

namespace vlm::vcps {
namespace {

PeriodArchive sample_archive() {
  PeriodArchive archive;
  archive.period = 42;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    common::BitArray bits(1 << 10);
    bits.set(id * 7);
    bits.set(id * 13);
    RsuReport report;
    report.rsu = core::RsuId{id};
    report.period = 42;
    report.counter = id * 100;
    report.array_size = bits.size();
    report.bits = bits.to_bytes();
    archive.reports.push_back(std::move(report));
  }
  return archive;
}

TEST(Archive, RoundTripsThroughStream) {
  const PeriodArchive original = sample_archive();
  std::stringstream stream;
  write_archive(stream, original);
  const PeriodArchive restored = read_archive(stream);
  EXPECT_EQ(restored.period, 42u);
  ASSERT_EQ(restored.reports.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(restored.reports[i].rsu, original.reports[i].rsu);
    EXPECT_EQ(restored.reports[i].counter, original.reports[i].counter);
    EXPECT_EQ(restored.reports[i].array_size, original.reports[i].array_size);
    EXPECT_EQ(restored.reports[i].bits, original.reports[i].bits);
    EXPECT_EQ(restored.reports[i].period, 42u);
  }
}

TEST(Archive, RoundTripsThroughFile) {
  const std::string path = testing::TempDir() + "/vlm_archive_test.bin";
  save_archive(path, sample_archive());
  const PeriodArchive restored = load_archive(path);
  EXPECT_EQ(restored.reports.size(), 3u);
}

TEST(Archive, EmptyPeriodIsValid) {
  PeriodArchive empty;
  empty.period = 7;
  std::stringstream stream;
  write_archive(stream, empty);
  const PeriodArchive restored = read_archive(stream);
  EXPECT_EQ(restored.period, 7u);
  EXPECT_TRUE(restored.reports.empty());
}

TEST(Archive, DetectsTruncation) {
  std::stringstream stream;
  write_archive(stream, sample_archive());
  std::string data = stream.str();
  data.resize(data.size() - 20);
  std::stringstream truncated(data);
  EXPECT_THROW((void)read_archive(truncated), std::runtime_error);
}

TEST(Archive, DetectsBitFlips) {
  std::stringstream stream;
  write_archive(stream, sample_archive());
  std::string data = stream.str();
  // Flip one payload byte somewhere in the middle.
  data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0x40);
  std::stringstream corrupted(data);
  EXPECT_THROW((void)read_archive(corrupted), std::runtime_error);
}

TEST(Archive, RejectsForeignData) {
  std::stringstream junk("this is not an archive at all, sorry");
  EXPECT_THROW((void)read_archive(junk), std::runtime_error);
}

TEST(Archive, RejectsImplausibleArraySize) {
  // Handcraft a header with a non-power-of-two array size by corrupting
  // a valid archive at the size field and fixing nothing else: the size
  // check fires before the checksum.
  PeriodArchive archive = sample_archive();
  archive.reports.resize(1);
  std::stringstream stream;
  write_archive(stream, archive);
  std::string data = stream.str();
  // Layout: magic(4) version(4) period(8) count(4) rsu(8) counter(8)
  // -> array size at offset 36.
  data[36] = 0x03;
  std::stringstream corrupted(data);
  EXPECT_THROW((void)read_archive(corrupted), std::runtime_error);
}

TEST(Archive, WriteRejectsInconsistentReports) {
  PeriodArchive archive = sample_archive();
  archive.reports[0].period = 43;  // mismatched period
  std::stringstream stream;
  EXPECT_THROW(write_archive(stream, archive), std::invalid_argument);

  archive = sample_archive();
  archive.reports[0].bits.pop_back();  // byte count mismatch
  EXPECT_THROW(write_archive(stream, archive), std::invalid_argument);
}

// A version-1 archive (serial byte-chain checksum) as the version-1
// writer produced it: period 77 with RSU 3 (counter 2, m = 4, bits
// {0, 2}), RSU 11 (counter 5, m = 64, bits {1, 17, 40, 63}) and RSU 25
// (counter 9, m = 128, bits {0, 64, 99, 127}).
std::string version1_archive() {
  static constexpr unsigned char kBytes[] = {
    0x56, 0x4C, 0x4D, 0x41, 0x01, 0x00, 0x00, 0x00, 0x4D, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x05, 0x0B, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x08, 0x00, 0x00, 0x00, 0x02, 0x00, 0x02, 0x00, 0x00, 0x01, 0x00,
    0x80, 0x19, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x10, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x01, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x80, 0x45, 0x40, 0x60,
    0x24, 0x0C, 0x28, 0x93, 0x3D,
  };
  return std::string(reinterpret_cast<const char*>(kBytes), sizeof kBytes);
}

TEST(Archive, ReadsVersion1Archives) {
  std::stringstream stream(version1_archive());
  const PeriodArchive archive = read_archive(stream);
  EXPECT_EQ(archive.period, 77u);
  struct Expected {
    std::uint64_t id, counter;
    std::size_t m;
    std::vector<std::size_t> ones;
  };
  const Expected expected[] = {{3, 2, 4, {0, 2}},
                               {11, 5, 64, {1, 17, 40, 63}},
                               {25, 9, 128, {0, 64, 99, 127}}};
  ASSERT_EQ(archive.reports.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const RsuReport& r = archive.reports[i];
    common::BitArray bits(expected[i].m);
    for (std::size_t bit : expected[i].ones) bits.set(bit);
    EXPECT_EQ(r.rsu, core::RsuId{expected[i].id});
    EXPECT_EQ(r.period, 77u);
    EXPECT_EQ(r.counter, expected[i].counter);
    EXPECT_EQ(r.array_size, expected[i].m);
    EXPECT_EQ(r.bits, bits.to_bytes());
  }
}

TEST(Archive, RejectsCorruptVersion1Archives) {
  const std::string valid = version1_archive();
  for (std::size_t offset = 0; offset < valid.size(); ++offset) {
    std::string mutated = valid;
    mutated[offset] = static_cast<char>(mutated[offset] ^ 0x01);
    std::stringstream stream(mutated);
    EXPECT_THROW((void)read_archive(stream), std::runtime_error)
        << "flip at " << offset;
  }
}

TEST(Archive, RejectsUnknownVersions) {
  std::stringstream stream;
  write_archive(stream, sample_archive());
  const std::string valid = stream.str();
  EXPECT_EQ(valid.substr(4, 4), std::string("\x02\x00\x00\x00", 4));
  for (const char version : {'\x00', '\x03'}) {
    std::string data = valid;
    data[4] = version;
    std::stringstream corrupted(data);
    try {
      (void)read_archive(corrupted);
      ADD_FAILURE() << "version " << int{version} << " accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported archive version"),
                std::string::npos)
          << e.what();
    }
  }
}

// The version-2 checksum exactly as archive.h defines it, one word at a
// time: each field's bytes as zero-padded little-endian words, then its
// length, dealt round-robin to four mix64 lanes, folded by a mix64 chain.
std::uint64_t reference_checksum(const std::string& data,
                                 const std::vector<std::size_t>& fields) {
  std::uint64_t lanes[4];
  for (std::uint64_t i = 0; i < 4; ++i) {
    lanes[i] = 0xA5A5A5A55A5A5A5Aull + i * 0x9E3779B97F4A7C15ull;
  }
  std::size_t next = 0;
  const auto step = [&](std::uint64_t word) {
    std::uint64_t& lane = lanes[next++ % 4];
    lane = common::mix64(lane ^ word);
  };
  std::size_t pos = 0;
  for (const std::size_t size : fields) {
    for (std::size_t w = 0; w < size; w += 8) {
      std::uint64_t word = 0;
      for (std::size_t b = 0; b < 8 && w + b < size; ++b) {
        word |= std::uint64_t{static_cast<unsigned char>(data[pos + w + b])}
                << (8 * b);
      }
      step(word);
    }
    step(size);
    pos += size;
  }
  std::uint64_t h = 0;
  for (const std::uint64_t lane : lanes) h = common::mix64(h ^ lane);
  return h;
}

TEST(Archive, Version2ChecksumMatchesItsDefinition) {
  // Mixed sizes put every report's bytes at a different lane offset, with
  // and without a partial final word.
  PeriodArchive archive;
  archive.period = 5;
  common::Xoshiro256ss rng(23);
  std::vector<std::size_t> fields = {4, 4, 8, 4};
  std::uint64_t id = 0;
  for (const std::size_t m : {4u, 64u, 128u, 1024u, 2048u, 8u, 256u}) {
    common::BitArray bits(m);
    for (std::size_t i = 0; i < m / 3 + 1; ++i) bits.set(rng.uniform(m));
    archive.reports.push_back(
        RsuReport{core::RsuId{++id}, 5, m, m, bits.to_bytes()});
    fields.insert(fields.end(), {8, 8, 8, 4, (m + 7) / 8});
  }
  std::stringstream stream;
  write_archive(stream, archive);
  const std::string data = stream.str();
  std::uint64_t stored = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    stored |= std::uint64_t{static_cast<unsigned char>(data[data.size() - 8 + i])}
              << (8 * i);
  }
  EXPECT_EQ(stored, reference_checksum(data, fields));
  const PeriodArchive back = read_archive(stream);
  EXPECT_EQ(back.reports.size(), archive.reports.size());
}

TEST(Archive, MissingFilesThrow) {
  EXPECT_THROW((void)load_archive("/nonexistent/path.bin"),
               std::runtime_error);
  EXPECT_THROW(save_archive("/nonexistent-dir/x.bin", sample_archive()),
               std::runtime_error);
}

}  // namespace
}  // namespace vlm::vcps
