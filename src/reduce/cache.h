// Content-addressed verification cache.
//
// Every verification obligation is keyed by three stable 64-bit digests:
//   slice_hash    -- the canonical text of the architecture slice the
//                    verdict depends on (the whole design for global
//                    obligations; one connector's configuration for local
//                    port-protocol obligations),
//   property_hash -- the obligation kind + property text,
//   options_hash  -- every option that can change the verdict or its
//                    confidence (search bounds, minimization mode, ...).
// Verdicts are persisted as JSON under --cache-dir, so a re-run of an
// unchanged design answers every obligation from the cache, and a
// plug-and-play connector swap re-verifies only the obligations whose
// slice digest changed (the paper's section 4 iterate loop, applied to
// verification results instead of component models).
//
// Digests come from support/hash.h stable_hash64 exclusively: byte-at-a-
// time FNV-1a with pinned constants, so caches are valid across machines,
// compilers, and endiannesses (digests are pinned by tests/test_reduce).
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace pnp::reduce {

/// Bump when the key scheme or entry layout changes; persisted files with
/// another version are ignored (re-verified, then overwritten).
inline constexpr int kCacheFormatVersion = 1;

struct ObligationKey {
  std::string kind;   // "safety" | "invariant" | "end-invariant" | "ltl" |
                      // "connector-protocol"
  std::string label;  // human-readable (property text / connector name)
  std::uint64_t slice_hash{0};
  std::uint64_t property_hash{0};
  std::uint64_t options_hash{0};

  /// Content address: kind + the three digests, hex. Stable across
  /// machines (see header comment).
  std::string digest() const;
};

struct CacheEntry {
  std::string digest;
  std::string kind;
  std::string label;
  bool passed{false};
  std::string stage;  // verification stage that produced the verdict
  std::uint64_t states_stored{0};
  double seconds{0.0};  // what the original verification cost

  bool operator==(const CacheEntry&) const = default;
};

/// JSON-backed obligation store. A default-constructed cache is disabled:
/// lookups miss, records are dropped, flush is a no-op -- callers need no
/// special casing when no --cache-dir was given.
///
/// Thread-safe: lookup/record/flush and the statistics accessors serialize
/// on an internal mutex, so one instance can back every worker of a pnpd
/// daemon (SuiteOptions::cache) -- the whole point of the shared cache is
/// that a connector swap submitted by any client re-verifies only the
/// dirtied slices, whichever worker got the job.
///
/// A cache may stay loaded across verifies (pnp::Session keeps one per
/// cache_dir): refresh() re-reads the file only when another writer has
/// replaced it since this cache last read or wrote it.
class VerificationCache {
 public:
  VerificationCache() = default;
  /// Opens (creating the directory if needed) `dir`/obligations.json and
  /// loads any existing entries. Raises ModelError if the file exists but
  /// cannot be parsed.
  explicit VerificationCache(const std::string& dir);

  bool enabled() const { return !file_.empty(); }
  const std::string& path() const { return file_; }

  /// Re-reads the file when its identity (device, inode, size, mtime)
  /// differs from the file this cache last read or wrote: another process
  /// committed its own temp file + rename, or the file appeared or went
  /// away. This cache's own flushes never trigger a re-read. A re-read
  /// replaces the entries with the file's and clears the dirty and
  /// persist_failed marks, exactly as constructing the cache anew would.
  /// Returns whether it re-read; raises ModelError like the constructor.
  bool refresh();
  /// How many times the file has been read: 1 after construction, plus
  /// one per refresh() that re-read it.
  int loads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return loads_;
  }

  /// Returns the stored verdict for `key`, if any, and counts a hit or a
  /// miss (the hit-rate statistics the bench and reports surface).
  std::optional<CacheEntry> lookup(const ObligationKey& key);
  /// Stores (or overwrites) the verdict for `key`. Recording an entry equal
  /// to the stored one changes nothing, so the next flush() has nothing to
  /// write.
  void record(const ObligationKey& key, CacheEntry entry);
  /// Persists all entries atomically (write-to-temp + rename), so a crash
  /// mid-flush leaves the previous cache file intact. Writes only when a
  /// record() since the last successful flush changed an entry: a verify
  /// answered wholly from the cache touches no file. A short write or
  /// rename failure (disk full, permissions) is retried a bounded number
  /// of times, then the cache degrades to uncached (see persist_failed()):
  /// in-memory entries keep serving lookups, later flushes are
  /// skipped, and false is returned so the caller can surface an incident.
  /// No-op (true) when disabled.
  bool flush() const;
  /// True once a flush has permanently failed (see flush()). The mark lasts
  /// as long as the loaded entries: for pnpd's shared cache, the daemon's
  /// life; for a Session's resident cache, until the session loads the file
  /// again (its cache_dir changes, or refresh() finds the file replaced by
  /// another writer).
  bool persist_failed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return persist_failed_;
  }

  int hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  int misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

 private:
  /// What identifies one version of the file: a rewrite (temp file +
  /// rename) gives it a new inode, an edit in place a new size or mtime.
  /// All zero for a missing file.
  struct FileStamp {
    std::uint64_t device{0};
    std::uint64_t inode{0};
    std::uint64_t size{0};
    std::int64_t mtime_ns{0};
    bool operator==(const FileStamp&) const = default;
  };
  static FileStamp stamp_of(const std::string& path);
  /// Replaces the entries with the file's (mu_ held, or construction).
  void load();

  /// Guards entries_, the stamp and the statistics; file_ is immutable
  /// after construction. Mutable so flush() and the accessors stay const.
  mutable std::mutex mu_;
  std::string file_;
  std::unordered_map<std::string, CacheEntry> entries_;
  /// The file as this cache last read or wrote it; mutable because flush()
  /// records the file it committed.
  mutable FileStamp stamp_;
  int loads_{0};
  int hits_{0};
  int misses_{0};
  /// Set by a record() that changed an entry, cleared by a successful
  /// flush(); mutable for the same reason as persist_failed_.
  mutable bool dirty_{false};
  /// Set by flush() on unrecoverable I/O failure; mutable because losing
  /// persistence does not change the cache's logical (const) contents.
  mutable bool persist_failed_{false};
};

}  // namespace pnp::reduce
