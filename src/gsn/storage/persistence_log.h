#ifndef GSN_STORAGE_PERSISTENCE_LOG_H_
#define GSN_STORAGE_PERSISTENCE_LOG_H_

#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "gsn/types/codec.h"
#include "gsn/types/schema.h"
#include "gsn/util/result.h"

namespace gsn::storage {

/// Append-only on-disk log of stream elements for one virtual sensor
/// with `<storage permanent-storage="true">`. The Java GSN delegated
/// durability to MySQL; here each permanent table owns one log file.
///
/// Record format: magic:u8 len:u32 payload crc32:u32, where payload is
/// Codec::EncodeElement. Recovery stops at the first corrupt or
/// truncated record (a torn tail write is expected after a crash) and
/// reports how many records were recovered. Open truncates such a torn
/// tail before appending, so post-crash appends land after the last
/// intact record instead of behind garbage that every future Recover
/// would stop at.
class PersistenceLog {
 public:
  /// Opens (creating if needed) the log at `path` for appending. A torn
  /// or corrupt tail left by a crash is truncated to the last intact
  /// record first.
  static Result<std::unique_ptr<PersistenceLog>> Open(const std::string& path);

  /// Atomically replaces the log at `path` with exactly `elements`
  /// (write temp file, fsync, rename) and returns a fresh append
  /// handle. This is the checkpoint/compaction primitive: rewriting
  /// with the rows still inside the table's retention window bounds the
  /// log — and therefore recovery — to O(window). Any prior handle on
  /// `path` must be destroyed before calling.
  static Result<std::unique_ptr<PersistenceLog>> Rewrite(
      const std::string& path, const std::vector<StreamElement>& elements);

  ~PersistenceLog();

  PersistenceLog(const PersistenceLog&) = delete;
  PersistenceLog& operator=(const PersistenceLog&) = delete;

  /// Appends one element and flushes it to the OS.
  Status Append(const StreamElement& element);

  /// Flushes and fsyncs the log to durable storage (drain shutdown).
  Status Sync();

  /// Reads every intact record from `path` (static: usable before
  /// opening for append). `truncated_tail` reports whether recovery
  /// stopped early due to a torn/corrupt record.
  static Result<std::vector<StreamElement>> Recover(const std::string& path,
                                                    bool* truncated_tail);

  const std::string& path() const { return path_; }
  /// Records appended through this handle.
  size_t appended_count() const;

 private:
  PersistenceLog(std::string path, std::FILE* file)
      : path_(std::move(path)), file_(file) {}

  const std::string path_;
  std::FILE* file_;
  mutable std::mutex mu_;
  size_t appended_ = 0;
};

/// CRC-32 (IEEE 802.3 polynomial, reflected) used for log records.
uint32_t Crc32(const void* data, size_t len);

// -- Record framing shared by every GSN append-log ------------------------
// (the per-sensor persistence logs above and the container manifest).

/// Frames one payload as magic:u8 len:u32 payload crc32:u32.
std::string FrameLogRecord(std::string_view payload);

/// Bytes a frame adds before a payload (magic + length) and in all
/// (plus the trailing CRC).
inline constexpr size_t kLogRecordHeaderBytes = 5;
inline constexpr size_t kLogRecordFramingBytes = 9;

/// The payload length a record's first kLogRecordHeaderBytes bytes
/// declare; IntegrityError when the magic is wrong. Lets a reader that
/// fetches records one at a time size a record before reading it.
Result<uint32_t> LogRecordPayloadLength(std::string_view header);

/// Scans `contents` for intact records, appending each payload to
/// `payloads`. Returns the byte length of the valid prefix; anything
/// past it is a torn or corrupt tail (`torn_tail` is set when the
/// prefix does not cover the whole buffer).
size_t ScanLogRecords(std::string_view contents,
                      std::vector<std::string_view>* payloads,
                      bool* torn_tail);

/// Reads a whole file into `contents`. Missing file = empty contents
/// (first boot), not an error.
Result<std::string> ReadLogFile(const std::string& path);

/// Writes `contents` to `path` atomically: temp file in the same
/// directory, flush + fsync, rename over the target.
Status WriteFileAtomic(const std::string& path, std::string_view contents);

}  // namespace gsn::storage

#endif  // GSN_STORAGE_PERSISTENCE_LOG_H_
