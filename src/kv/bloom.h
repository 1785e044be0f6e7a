// Bloom filter over store-file row keys (HBase ROW blooms): a point get
// consults a file only if the filter says the row may be present, turning
// the "probe every store file" read path into "probe the one file that has
// the row" for the common case. False positives cost one wasted block
// fetch; false negatives are impossible.
//
// The filter is built once at store-file write time from the distinct row
// hashes and serialized into the file's meta section. Probing
// uses double hashing (Kirsch–Mitzenmacher): k probe positions derived from
// one 64-bit hash, so the per-probe cost is a multiply-add and a bit test.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tfr {

/// 64-bit FNV-1a — the one hash both writer and reader must agree on.
std::uint64_t bloom_hash(std::string_view key);

class BloomFilter {
 public:
  /// Empty filter: may_contain() is true for everything (no pruning).
  BloomFilter() = default;

  /// Build from pre-hashed keys at `bits_per_key` bits each (10 bits/key
  /// ~= 1% false-positive rate at the k chosen here).
  static BloomFilter build(const std::vector<std::uint64_t>& hashes, int bits_per_key = 10);

  bool may_contain(std::uint64_t hash) const;
  bool may_contain(std::string_view key) const { return may_contain(bloom_hash(key)); }

  /// True when the filter carries no bits (built from no keys, as for an
  /// empty store file): probes always pass and callers should not count
  /// skips against it.
  bool empty() const { return bits_.empty(); }

  std::size_t bit_count() const { return bits_.size() * 8; }
  int probes() const { return probes_; }

  /// Wire form: the raw bit array (probes travel separately so the codec
  /// stays a plain length-prefixed string).
  const std::string& bits() const { return bits_; }
  static BloomFilter from_parts(std::string bits, int probes);

 private:
  std::string bits_;   // bit array, little-endian bit order within each byte
  int probes_ = 0;     // k hash probes per key
};

}  // namespace tfr
