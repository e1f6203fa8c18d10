#include "vcps/archive.h"

#include <array>
#include <bit>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "common/hashing.h"
#include "common/math_util.h"
#include "common/require.h"

namespace vlm::vcps {

namespace {

constexpr char kMagic[4] = {'V', 'L', 'M', 'A'};
constexpr std::uint32_t kVersion = 2;
constexpr std::uint32_t kVersionByteChain = 1;  // read only
// Bound against absurd inputs when reading untrusted files.
constexpr std::uint32_t kMaxReports = 1 << 20;
constexpr std::uint64_t kMaxArrayBits = std::uint64_t{1} << 34;

std::uint32_t load_le32(const unsigned char* bytes) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{bytes[i]} << (8 * i);
  return v;
}

std::uint64_t load_le64(const unsigned char* bytes) {
  std::uint64_t v;
  std::memcpy(&v, bytes, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

// The checksum of either version, absorbed one field per update() call
// (definitions in archive.h).
class Digest {
 public:
  explicit Digest(std::uint32_t version) : version_(version) {}

  void update(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    if (version_ == kVersionByteChain) {
      for (std::size_t i = 0; i < size; ++i) {
        chain_ = common::mix64(chain_ ^ (bytes[i] + kGamma));
      }
      return;
    }
    const std::size_t words = size / 8;
    std::size_t w = 0;
    for (; w < words && next_ % kLanes != 0; ++w) {
      step(load_le64(bytes + 8 * w));
    }
    // Lane-aligned: four independent mix64 chains per iteration.
    const std::size_t quads = (words - w) / kLanes;
    std::uint64_t l0 = lanes_[0], l1 = lanes_[1], l2 = lanes_[2],
                  l3 = lanes_[3];
    for (std::size_t q = 0; q < quads; ++q, w += kLanes) {
      const unsigned char* p = bytes + 8 * w;
      l0 = common::mix64(l0 ^ load_le64(p));
      l1 = common::mix64(l1 ^ load_le64(p + 8));
      l2 = common::mix64(l2 ^ load_le64(p + 16));
      l3 = common::mix64(l3 ^ load_le64(p + 24));
    }
    lanes_[0] = l0;
    lanes_[1] = l1;
    lanes_[2] = l2;
    lanes_[3] = l3;
    next_ += quads * kLanes;
    for (; w < words; ++w) step(load_le64(bytes + 8 * w));
    if (size % 8 != 0) {
      std::uint64_t tail = 0;
      for (std::size_t i = 0; i < size % 8; ++i) {
        tail |= std::uint64_t{bytes[8 * words + i]} << (8 * i);
      }
      step(tail);
    }
    step(size);
  }

  std::uint64_t value() const {
    if (version_ == kVersionByteChain) return chain_;
    std::uint64_t h = 0;
    for (const std::uint64_t lane : lanes_) h = common::mix64(h ^ lane);
    return h;
  }

 private:
  static constexpr std::size_t kLanes = 4;
  static constexpr std::uint64_t kSeed = 0xA5A5A5A55A5A5A5Aull;
  static constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ull;

  void step(std::uint64_t word) {
    std::uint64_t& lane = lanes_[next_ % kLanes];
    lane = common::mix64(lane ^ word);
    ++next_;
  }

  std::uint32_t version_;
  std::uint64_t chain_ = kSeed;
  std::array<std::uint64_t, kLanes> lanes_ = {
      kSeed, kSeed + kGamma, kSeed + 2 * kGamma, kSeed + 3 * kGamma};
  std::uint64_t next_ = 0;  // words absorbed so far
};

void read_exact(std::istream& in, void* data, std::size_t size) {
  in.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  if (static_cast<std::size_t>(in.gcount()) != size) {
    throw std::runtime_error("archive truncated");
  }
}

class Writer {
 public:
  explicit Writer(std::ostream& out) : out_(out), digest_(kVersion) {}

  void bytes(const void* data, std::size_t size) {
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(size));
    digest_.update(data, size);
  }
  void u32(std::uint32_t v) {
    unsigned char buf[4];
    for (int i = 0; i < 4; ++i) buf[i] = (v >> (8 * i)) & 0xFF;
    bytes(buf, 4);
  }
  void u64(std::uint64_t v) {
    unsigned char buf[8];
    for (int i = 0; i < 8; ++i) buf[i] = (v >> (8 * i)) & 0xFF;
    bytes(buf, 8);
  }
  std::uint64_t digest() const { return digest_.value(); }

 private:
  std::ostream& out_;
  Digest digest_;
};

class Reader {
 public:
  Reader(std::istream& in, std::uint32_t version)
      : in_(in), digest_(version) {}

  void bytes(void* data, std::size_t size) {
    read_exact(in_, data, size);
    absorb(data, size);
  }
  // Folds a field already read into the digest.
  void absorb(const void* data, std::size_t size) {
    digest_.update(data, size);
  }
  std::uint32_t u32() {
    unsigned char buf[4];
    bytes(buf, 4);
    return load_le32(buf);
  }
  std::uint64_t u64() {
    unsigned char buf[8];
    bytes(buf, 8);
    return load_le64(buf);
  }
  // Reads WITHOUT updating the digest (for the trailing checksum).
  std::uint64_t raw_u64() {
    unsigned char buf[8];
    read_exact(in_, buf, 8);
    return load_le64(buf);
  }
  std::uint64_t digest() const { return digest_.value(); }

 private:
  std::istream& in_;
  Digest digest_;
};

}  // namespace

void write_archive(std::ostream& out, const PeriodArchive& archive) {
  VLM_REQUIRE(archive.reports.size() <= kMaxReports,
              "too many reports for one archive");
  Writer w(out);
  w.bytes(kMagic, 4);
  w.u32(kVersion);
  w.u64(archive.period);
  w.u32(static_cast<std::uint32_t>(archive.reports.size()));
  for (const RsuReport& report : archive.reports) {
    VLM_REQUIRE(report.period == archive.period,
                "report period does not match the archive period");
    VLM_REQUIRE(report.bits.size() == (report.array_size + 7) / 8,
                "report byte buffer does not match its array size");
    w.u64(report.rsu.value);
    w.u64(report.counter);
    w.u64(report.array_size);
    w.u32(static_cast<std::uint32_t>(report.bits.size()));
    w.bytes(report.bits.data(), report.bits.size());
  }
  const std::uint64_t checksum = w.digest();
  // The checksum itself is written raw (not folded into the digest).
  unsigned char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = (checksum >> (8 * i)) & 0xFF;
  out.write(reinterpret_cast<const char*>(buf), 8);
  if (!out) throw std::runtime_error("archive write failed");
}

PeriodArchive read_archive(std::istream& in) {
  // Magic and version come first; the version picks the checksum, which
  // then absorbs them like every other field.
  unsigned char magic[4];
  unsigned char version_bytes[4];
  read_exact(in, magic, 4);
  if (std::memcmp(magic, kMagic, 4) != 0) {
    throw std::runtime_error("not a VLM archive (bad magic)");
  }
  read_exact(in, version_bytes, 4);
  const std::uint32_t version = load_le32(version_bytes);
  if (version != kVersion && version != kVersionByteChain) {
    throw std::runtime_error("unsupported archive version " +
                             std::to_string(version));
  }
  Reader r(in, version);
  r.absorb(magic, 4);
  r.absorb(version_bytes, 4);
  PeriodArchive archive;
  archive.period = r.u64();
  const std::uint32_t count = r.u32();
  if (count > kMaxReports) {
    throw std::runtime_error("implausible report count in archive");
  }
  archive.reports.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    RsuReport report;
    report.period = archive.period;
    report.rsu = core::RsuId{r.u64()};
    report.counter = r.u64();
    const std::uint64_t array_size = r.u64();
    if (array_size < 2 || array_size > kMaxArrayBits ||
        !common::is_power_of_two(array_size)) {
      throw std::runtime_error("implausible array size in archive");
    }
    report.array_size = static_cast<std::size_t>(array_size);
    const std::uint32_t byte_count = r.u32();
    if (byte_count != (report.array_size + 7) / 8) {
      throw std::runtime_error("archive byte count does not match array size");
    }
    report.bits.resize(byte_count);
    r.bytes(report.bits.data(), byte_count);
    archive.reports.push_back(std::move(report));
  }
  const std::uint64_t expected = r.digest();
  const std::uint64_t stored = r.raw_u64();
  if (stored != expected) {
    throw std::runtime_error("archive checksum mismatch");
  }
  return archive;
}

void save_archive(const std::string& path, const PeriodArchive& archive) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open archive for writing: " + path);
  write_archive(out, archive);
}

PeriodArchive load_archive(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open archive: " + path);
  return read_archive(in);
}

}  // namespace vlm::vcps
