#ifndef GSN_NETWORK_REPLAY_BUFFER_H_
#define GSN_NETWORK_REPLAY_BUFFER_H_

#include <cstdint>
#include <map>
#include <string>

namespace gsn::network {

/// Bounded per-subscriber buffer of encoded StreamDelivery payloads,
/// keyed by sequence number, kept by the *producer* so a subscriber can
/// NACK gaps and have the missing deliveries replayed. This is the
/// paper's "temporary disconnections ... handled by buffering" applied
/// to the inter-container stream: at-least-once delivery from this
/// buffer plus receiver-side dedup gives exactly-once admission.
///
/// When the byte budget is exceeded the oldest payloads are evicted;
/// a NACK for an evicted sequence cannot be served and the subscriber
/// eventually abandons the gap (counted, never silent). The budget
/// counts each entry's bookkeeping as well as its payload, so it bounds
/// the memory the buffer really holds.
///
/// Not internally synchronized: the container guards its subscriber
/// table (and these buffers) with its own mutex.
class ReplayBuffer {
 public:
  /// Memory an entry holds beyond its payload bytes: the map node (tree
  /// links, key, string header) and allocator headers — 88 to 104 bytes
  /// per entry measured with glibc on x86-64. Stream deliveries are
  /// ~100-byte payloads, so counting payload bytes alone let a full
  /// buffer hold about 1.7x its budget.
  static constexpr size_t kEntryOverheadBytes = 96;

  explicit ReplayBuffer(size_t max_bytes = 1 << 20) : max_bytes_(max_bytes) {}

  /// Stores the payload for `seq`, evicting oldest entries while over
  /// budget. A payload larger than the whole budget is stored alone
  /// (the buffer never refuses the newest delivery).
  void Put(uint64_t seq, std::string payload) {
    bytes_ += payload.size() + kEntryOverheadBytes;
    entries_[seq] = std::move(payload);
    while (entries_.size() > 1 && bytes_ > max_bytes_) {
      auto oldest = entries_.begin();
      bytes_ -= oldest->second.size() + kEntryOverheadBytes;
      entries_.erase(oldest);
      ++evicted_;
    }
  }

  /// The payload for `seq`, or null when unknown or already evicted.
  const std::string* Get(uint64_t seq) const {
    auto it = entries_.find(seq);
    return it == entries_.end() ? nullptr : &it->second;
  }

  size_t size() const { return entries_.size(); }
  /// Bytes charged against the budget: payloads plus per-entry overhead.
  size_t bytes() const { return bytes_; }
  size_t max_bytes() const { return max_bytes_; }
  int64_t evicted_total() const { return evicted_; }
  /// Lowest / highest buffered sequence (0 when empty).
  uint64_t oldest_seq() const {
    return entries_.empty() ? 0 : entries_.begin()->first;
  }
  uint64_t newest_seq() const {
    return entries_.empty() ? 0 : entries_.rbegin()->first;
  }

 private:
  size_t max_bytes_;
  std::map<uint64_t, std::string> entries_;
  size_t bytes_ = 0;
  int64_t evicted_ = 0;
};

}  // namespace gsn::network

#endif  // GSN_NETWORK_REPLAY_BUFFER_H_
