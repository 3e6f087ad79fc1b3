/// \file format.hpp
/// The IECD evidence artifact: a compact, deterministic binary container
/// for the records one run leaves behind — trace events, metrics, health
/// and campaign summaries, build provenance.  Design rules:
///
///   * fixed little-endian layout, explicit widths, no text floats —
///     doubles travel as their IEEE-754 bit pattern;
///   * every cell is length-prefixed, so a reader can skip records whose
///     schema it does not know (forward compatibility) and detect
///     truncation exactly;
///   * the same run always produces the same bytes — map-ordered metric
///     iteration, interned-string tables emitted in id order, no clocks,
///     no pointers;
///   * tamper-evident: a per-record chained hash plus a SHA-256 digest of
///     the whole body live in the footer (see hash.hpp);
///   * O(buckets), never O(samples): a registry series travels as its
///     util::LatencyHistogram state (store_histogram below), the one
///     histogram codec the metric records and campaign checkpoints share.
///
/// File layout:
///
///   [header 32 B] [schema section] [record cells ...] [footer 64 B]
///
///   header:  magic "IECDEVD1", u16 version, u16 header_size,
///            u32 schema_count, u64 flags, u64 reserved
///   schema:  schema_count cells, each u32 len + schema definition
///            (see schema.hpp)
///   record:  u32 payload_len, u16 schema_id, u16 schema_version,
///            payload_len payload bytes
///   footer:  u32 sentinel 0xFFFFFFFF (never a valid payload length),
///            magic "IECDFTR1", u64 record_count, u64 chain_hash,
///            32 B SHA-256 of bytes [0, footer_start), u32 end magic
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/latency_histogram.hpp"

namespace iecd::evidence {

inline constexpr char kHeaderMagic[8] = {'I', 'E', 'C', 'D',
                                         'E', 'V', 'D', '1'};
inline constexpr char kFooterMagic[8] = {'I', 'E', 'C', 'D',
                                         'F', 'T', 'R', '1'};
inline constexpr std::uint16_t kFormatVersion = 1;
inline constexpr std::uint16_t kHeaderSize = 32;
inline constexpr std::uint32_t kFooterSentinel = 0xFFFFFFFFu;
inline constexpr std::uint32_t kEndMagic = 0x31445645u;  // "EVD1" LE
inline constexpr std::size_t kFooterSize = 4 + 8 + 8 + 8 + 32 + 4;
/// Per-cell framing: u32 payload_len + u16 schema_id + u16 schema_version.
inline constexpr std::size_t kCellHeaderSize = 4 + 2 + 2;
/// Upper bound on one record cell's payload; anything larger is treated
/// as corruption by the reader (guards length-field bit flips).
inline constexpr std::uint32_t kMaxPayload = 1u << 30;

// ------------------------------------------------------------ built-in ids
/// Built-in record schemas (see SchemaRegistry::builtin() for the field
/// lists).  Ids are append-only: a new record kind takes the next id, an
/// extended record kind keeps its id and bumps its schema version.
enum : std::uint16_t {
  kSchemaStringIntern = 1,   ///< trace-name table entry {id, str}
  kSchemaTraceEvent = 2,     ///< one trace::Event, names by intern id
  kSchemaMetricCounter = 3,  ///< MetricsRegistry counter
  kSchemaMetricGauge = 4,    ///< MetricsRegistry gauge
  kSchemaMetricStats = 5,    ///< RunningStats raw state
  kSchemaMetricSeries = 6,   ///< retired: raw f64 samples, read as a series
  kSchemaMetricHistogram = 7,///< retired: fixed-bin histogram raw counts
  kSchemaBuildInfo = 8,      ///< git sha / compiler / flags / build type
  kSchemaRunMeta = 9,        ///< run name, sweep index, seed
  kSchemaHealthSummary = 10, ///< HealthReport headline + full JSON
  kSchemaCampaignSummary = 11,  ///< CampaignReport headline + full JSON
  kSchemaCampaignCheckpoint = 12,  ///< campaign resume point (fold state)
  kSchemaMetricLatencyHistogram = 13,  ///< registry series: histogram state
};

// --------------------------------------------------- little-endian codec
// memcpy-based so the layout is host-endianness-independent and free of
// alignment traps (records are packed).
template <typename T>
inline void store_le(std::vector<std::uint8_t>& out, T v) {
  static_assert(std::is_integral_v<T>);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<std::uint8_t>(
        static_cast<std::make_unsigned_t<T>>(v) >> (8 * i)));
  }
}

inline void store_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  store_le<std::uint64_t>(out, bits);
}

/// Raw-pointer variants for pre-sized buffers (the writer's event fast
/// path).  Return the pointer just past the written bytes.
template <typename T>
inline std::uint8_t* store_le_at(std::uint8_t* p, T v) {
  static_assert(std::is_integral_v<T>);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<std::uint8_t>(
        static_cast<std::make_unsigned_t<T>>(v) >> (8 * i));
  }
  return p + sizeof(T);
}

inline std::uint8_t* store_f64_at(std::uint8_t* p, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return store_le_at<std::uint64_t>(p, bits);
}

inline void store_str(std::vector<std::uint8_t>& out, std::string_view s) {
  store_le<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  // Byte loop instead of a char* range-insert: gcc 12 flags the latter
  // with a spurious -Wstringop-overflow when inlined into callers.
  for (char c : s) out.push_back(static_cast<std::uint8_t>(c));
}

template <typename T>
inline T load_le(const std::uint8_t* p) {
  static_assert(std::is_integral_v<T>);
  std::make_unsigned_t<T> v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<std::make_unsigned_t<T>>(p[i]) << (8 * i);
  }
  return static_cast<T>(v);
}

inline double load_f64(const std::uint8_t* p) {
  const std::uint64_t bits = load_le<std::uint64_t>(p);
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

/// Bounds-checked cursor over a record payload; every read method returns
/// false instead of walking past the end, so a corrupted length field can
/// never take the reader out of bounds.
class PayloadCursor {
 public:
  PayloadCursor(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

  template <typename T>
  bool read(T& out) {
    if (remaining() < sizeof(T)) return false;
    out = load_le<T>(data_ + pos_);
    pos_ += sizeof(T);
    return true;
  }

  bool read_f64(double& out) {
    if (remaining() < 8) return false;
    out = load_f64(data_ + pos_);
    pos_ += 8;
    return true;
  }

  bool read_str(std::string& out) {
    std::uint32_t len = 0;
    if (!read(len)) return false;
    if (remaining() < len) return false;
    out.assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return true;
  }

  /// Raw view of \p n bytes (for f64/u64 arrays).
  bool read_bytes(const std::uint8_t*& out, std::size_t n) {
    if (remaining() < n) return false;
    out = data_ + pos_;
    pos_ += n;
    return true;
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ------------------------------------------------------- histogram codec
/// One util::LatencyHistogram: u32 first bucket, the counts of the
/// non-empty bucket range [first, last] as u32 byte length + u64 each,
/// then u64 count, f64 sum, min, max.  An empty histogram writes an empty
/// range at 0.  Sparse because the 1,921 buckets would take 15 KB written
/// densely, while a run's latencies fill a few dozen.
inline void store_histogram(std::vector<std::uint8_t>& out,
                            const util::LatencyHistogram& h) {
  const std::vector<std::uint64_t>& counts = h.bucket_counts();
  std::size_t first = 0;
  std::size_t end = counts.size();
  while (first < end && counts[first] == 0) ++first;
  while (end > first && counts[end - 1] == 0) --end;
  if (first == end) first = end = 0;
  store_le<std::uint32_t>(out, static_cast<std::uint32_t>(first));
  store_le<std::uint32_t>(out, static_cast<std::uint32_t>((end - first) * 8));
  for (std::size_t i = first; i < end; ++i) store_le<std::uint64_t>(out, counts[i]);
  store_le<std::uint64_t>(out, h.count());
  store_f64(out, h.sum());
  store_f64(out, h.min());
  store_f64(out, h.max());
}

/// Reads what store_histogram wrote; false on a short payload or a state
/// util::LatencyHistogram::from_raw rejects (range past the bucket count,
/// counts not summing to count, min > max, min or max outside the
/// non-empty buckets).
inline bool read_histogram(PayloadCursor& cur, util::LatencyHistogram& out) {
  std::uint32_t first = 0;
  std::uint32_t byte_len = 0;
  const std::uint8_t* raw = nullptr;
  std::uint64_t count = 0;
  double sum = 0, min = 0, max = 0;
  if (!cur.read(first) || !cur.read(byte_len) || byte_len % 8 != 0 ||
      !cur.read_bytes(raw, byte_len) || !cur.read(count) ||
      !cur.read_f64(sum) || !cur.read_f64(min) || !cur.read_f64(max)) {
    return false;
  }
  std::vector<std::uint64_t> counts(byte_len / 8);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = load_le<std::uint64_t>(raw + 8 * i);
  }
  auto h = util::LatencyHistogram::from_raw(first, counts, count, sum, min, max);
  if (!h) return false;
  out = std::move(*h);
  return true;
}

}  // namespace iecd::evidence
