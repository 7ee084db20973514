// Write-ahead message journal: crash persistence for a brick's register
// state, built on the wire codec.
//
// The paper's crash model (§2) assumes a brick's persistent state — ord-ts
// and the timestamped log — survives the crash; the simulator gets that for
// free because a "crashed" brick's BrickStore object lives on. A real
// brickd killed with SIGKILL does not, so it journals every
// state-mutating request (Order, OrderRead, MultiOrderRead, Write, Modify,
// ModifyDelta, MultiModify, Gc — everything but the read-only Read) before
// handling it, and replays the journal through a fresh RegisterReplica on
// restart. Replica handlers are deterministic functions of (request,
// state), so replaying the identical request sequence reconstructs the
// identical store — the same argument behind the chaos suite's
// persistence-fingerprint assertion.
//
// Record format: [u32 length][encode_message bytes] per record, appended
// with one write per record. A record's own CRC (from the wire encoding)
// plus the length prefix make torn tails detectable: loading stops cleanly
// at the first truncated or corrupt record, which is exactly the prefix the
// brick had acknowledged. No fsync by default — a SIGKILL loses nothing
// that reached write(2) (the page cache survives process death);
// fsync-per-append is available for power-failure durability at an obvious
// cost.
//
// All I/O goes through storage::Env so the disk-fault campaigns can inject
// torn writes, EIO, and ENOSPC underneath; append failures surface a typed
// IoStatus the brick turns into read-only degraded mode instead of an
// abort.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/messages.h"
#include "storage/env.h"

namespace fabec::core {

/// True for the request kinds whose handling mutates replica state — the
/// set a brick must journal. Read requests and all replies are excluded.
bool is_mutating_request(const Message& msg);

/// Outcome of loading one journal file.
struct JournalLoadResult {
  std::vector<Message> records;  ///< the decodable prefix, in append order
  /// Bytes dropped past the last good record (torn/corrupt tail).
  std::uint64_t tail_dropped_bytes = 0;
  bool tail_dropped = false;
  /// The file existed but could not be read at all (EIO); `records` empty.
  bool read_error = false;
};

/// Reads every complete record of the journal at `path`, stopping at the
/// first truncated or undecodable record. A missing file is an empty
/// journal (not an error).
JournalLoadResult load_journal(storage::Env& env, const std::string& path);

/// Decodes journal records from raw file contents (fsck, tests).
JournalLoadResult decode_journal(const Bytes& contents);

class MessageJournal {
 public:
  MessageJournal() = default;

  MessageJournal(const MessageJournal&) = delete;
  MessageJournal& operator=(const MessageJournal&) = delete;

  /// Opens (creating if absent) the journal at `path` for appending
  /// through `env`. Returns false on I/O failure.
  bool open(storage::Env& env, const std::string& path,
            bool fsync_each = false);
  /// Legacy convenience: open through the real filesystem.
  bool open(const std::string& path, bool fsync_each = false) {
    return open(storage::Env::real(), path, fsync_each);
  }
  bool is_open() const { return file_ != nullptr; }
  void close();

  /// Appends one record. Returns false on I/O failure; append_status()
  /// then says whether it was ENOSPC, EIO, or a crash point (the caller
  /// must stop acknowledging mutations: an unjournaled mutation breaks the
  /// persistence invariant).
  bool append(const Message& msg);
  storage::IoStatus append_status() const { return append_status_; }

  /// Records/bytes appended since the last open() — per segment, so the
  /// active-journal size resets when compaction rolls to a fresh file.
  std::uint64_t records_appended() const { return appended_; }
  std::uint64_t bytes_appended() const { return bytes_appended_; }

  /// Legacy load via the real filesystem: the decodable prefix, or nullopt
  /// on a read error for an existing file.
  static std::optional<std::vector<Message>> load(const std::string& path);

 private:
  std::unique_ptr<storage::WritableFile> file_;
  bool fsync_each_ = false;
  std::uint64_t appended_ = 0;
  std::uint64_t bytes_appended_ = 0;
  storage::IoStatus append_status_ = storage::IoStatus::kOk;
};

}  // namespace fabec::core
