#include "reduce/cache.h"

#include <sys/stat.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/panic.h"

namespace pnp::reduce {

namespace {

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(c));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// Minimal parser for the subset this module writes: an object holding a
/// version and an array of flat objects with string/number/bool values.
class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : s_(text) {}

  void skip_ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])))
      ++i_;
  }
  bool eat(char c) {
    skip_ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    PNP_CHECK(eat(c), "verification cache: malformed JSON (expected '" +
                          std::string(1, c) + "')");
  }
  std::string string() {
    expect('"');
    std::string out;
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_++];
      if (c == '\\' && i_ < s_.size()) {
        const char e = s_[i_++];
        switch (e) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'u': {
            PNP_CHECK(i_ + 4 <= s_.size(),
                      "verification cache: malformed \\u escape");
            out += static_cast<char>(
                std::stoi(s_.substr(i_ + 2, 2), nullptr, 16));
            i_ += 4;
            break;
          }
          default: out += e;
        }
      } else {
        out += c;
      }
    }
    expect('"');
    return out;
  }
  /// Number / true / false as a raw token.
  std::string scalar() {
    skip_ws();
    std::size_t start = i_;
    while (i_ < s_.size() && (std::isalnum(static_cast<unsigned char>(s_[i_])) ||
                              s_[i_] == '.' || s_[i_] == '-' || s_[i_] == '+' ||
                              s_[i_] == 'e' || s_[i_] == 'E'))
      ++i_;
    PNP_CHECK(i_ > start, "verification cache: malformed JSON scalar");
    return s_.substr(start, i_ - start);
  }
  bool peek(char c) {
    skip_ws();
    return i_ < s_.size() && s_[i_] == c;
  }

 private:
  const std::string& s_;
  std::size_t i_{0};
};

/// The entries of a cache file's text; raises ModelError when the text is
/// malformed. A file of another format version holds none.
std::unordered_map<std::string, CacheEntry> parse_entries(
    const std::string& text) {
  std::unordered_map<std::string, CacheEntry> entries;
  if (text.empty()) return entries;
  JsonReader r(text);
  r.expect('{');
  int version = -1;
  for (;;) {
    const std::string key = r.string();
    r.expect(':');
    if (key == "version") {
      version = std::stoi(r.scalar());
      if (version != kCacheFormatVersion) return {};  // stale format
    } else if (key == "obligations") {
      r.expect('[');
      if (!r.eat(']')) {
        entries.reserve(64);  // typical suite: a few dozen obligations
        do {
          r.expect('{');
          CacheEntry e;
          do {
            const std::string field = r.string();
            r.expect(':');
            if (field == "id") e.digest = r.string();
            else if (field == "kind") e.kind = r.string();
            else if (field == "label") e.label = r.string();
            else if (field == "passed") e.passed = r.scalar() == "true";
            else if (field == "stage") e.stage = r.string();
            else if (field == "states") e.states_stored = std::stoull(r.scalar());
            else if (field == "seconds") e.seconds = std::stod(r.scalar());
            else if (r.peek('"')) r.string();  // unknown field: skip value
            else r.scalar();
          } while (r.eat(','));
          r.expect('}');
          if (!e.digest.empty()) entries[e.digest] = std::move(e);
        } while (r.eat(','));
        r.expect(']');
      }
    } else if (r.peek('"')) {
      r.string();
    } else {
      r.scalar();
    }
    if (!r.eat(',')) break;
  }
  r.expect('}');
  return entries;
}

}  // namespace

std::string ObligationKey::digest() const {
  return kind + ":" + hex16(slice_hash) + "-" + hex16(property_hash) + "-" +
         hex16(options_hash);
}

VerificationCache::VerificationCache(const std::string& dir) {
  PNP_CHECK(!dir.empty(), "VerificationCache: empty cache directory");
  std::filesystem::create_directories(dir);
  file_ = (std::filesystem::path(dir) / "obligations.json").string();
  load();
}

VerificationCache::FileStamp VerificationCache::stamp_of(
    const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return {};
#if defined(_WIN32)
  const std::int64_t mtime_ns = static_cast<std::int64_t>(st.st_mtime) *
                                1'000'000'000;
#else
  const std::int64_t mtime_ns =
      static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1'000'000'000 +
      st.st_mtim.tv_nsec;
#endif
  return {static_cast<std::uint64_t>(st.st_dev),
          static_cast<std::uint64_t>(st.st_ino),
          static_cast<std::uint64_t>(st.st_size), mtime_ns};
}

bool VerificationCache::refresh() {
  if (!enabled()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (stamp_of(file_) == stamp_) return false;
  load();
  return true;
}

void VerificationCache::load() {
  ++loads_;
  // Stamped before reading: should the file be replaced in between, the
  // stamp is the older one and the next refresh() reads the file again.
  const FileStamp stamp = stamp_of(file_);
  std::ifstream in(file_);
  std::ostringstream ss;
  if (in) ss << in.rdbuf();
  entries_ = parse_entries(ss.str());
  stamp_ = stamp;
  dirty_ = false;
  persist_failed_ = false;
}

std::optional<CacheEntry> VerificationCache::lookup(const ObligationKey& key) {
  if (!enabled()) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key.digest());
  if (it == entries_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second;
}

void VerificationCache::record(const ObligationKey& key, CacheEntry entry) {
  if (!enabled()) return;
  entry.digest = key.digest();
  if (entry.kind.empty()) entry.kind = key.kind;
  if (entry.label.empty()) entry.label = key.label;
  std::lock_guard<std::mutex> lock(mu_);
  CacheEntry& slot = entries_[entry.digest];
  if (slot == entry) return;
  slot = std::move(entry);
  dirty_ = true;
}

bool VerificationCache::flush() const {
  if (!enabled()) return true;
  std::lock_guard<std::mutex> lock(mu_);
  if (persist_failed_) return false;  // already degraded to uncached
  if (!dirty_) return true;           // the file already holds every entry
  std::ostringstream os;
  os << "{\"version\": " << kCacheFormatVersion << ",\n\"obligations\": [";
  bool first = true;
  for (const auto& [digest, e] : entries_) {
    os << (first ? "\n" : ",\n") << "{\"id\": ";
    write_json_string(os, digest);
    os << ", \"kind\": ";
    write_json_string(os, e.kind);
    os << ", \"label\": ";
    write_json_string(os, e.label);
    os << ", \"passed\": " << (e.passed ? "true" : "false");
    os << ", \"stage\": ";
    write_json_string(os, e.stage);
    os << ", \"states\": " << e.states_stored;
    os << ", \"seconds\": " << e.seconds << "}";
    first = false;
  }
  os << "\n]}\n";
  const std::string text = os.str();
  // Atomic commit with bounded retries: truncating the live file and then
  // failing the write (disk full) would destroy verdicts that were valid a
  // moment ago, so the file is only ever replaced whole via rename.
  const std::string tmp = file_ + ".tmp";
  constexpr int kFlushAttempts = 3;
  for (int attempt = 0; attempt < kFlushAttempts; ++attempt) {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (out) {
      out.write(text.data(), static_cast<std::streamsize>(text.size()));
      out.close();
      if (out) {
        // A rename keeps the inode, size and mtime: this is the identity
        // of the file once committed, so refresh() knows it as ours.
        const FileStamp written = stamp_of(tmp);
        std::error_code ec;
        std::filesystem::rename(tmp, file_, ec);
        if (!ec) {
          stamp_ = written;
          dirty_ = false;
          return true;
        }
      }
    }
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
  }
  persist_failed_ = true;
  return false;
}

}  // namespace pnp::reduce
