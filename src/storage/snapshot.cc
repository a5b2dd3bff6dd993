#include "src/storage/snapshot.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/parser/parser.h"
#include "src/storage/serialize.h"

namespace dmtl {

namespace {

constexpr char kMagic[] = "DMTL-SNAPSHOT";
constexpr int kVersion = 2;

// One fact statement in SerializeDatabase form -> Fact. A snapshot line
// carries exactly one statement; more (or none) is a corrupt snapshot.
Result<Fact> ParseFactLine(const std::string& line) {
  DMTL_ASSIGN_OR_RETURN(Database db, Parser::ParseDatabase(line));
  if (db.NumIntervals() != 1) {
    return Status::ParseError("snapshot fact line must hold one statement: " +
                              line);
  }
  for (const auto& [pred, rel] : db.relations()) {
    for (const auto& [tuple, set] : rel.data()) {
      for (const Interval& iv : set) {
        return Fact{pred, tuple, iv};
      }
    }
  }
  return Status::ParseError("empty fact line in snapshot: " + line);
}

// Sequential line reader with the fixed-format helpers the decoder needs;
// every helper reports the offending line on mismatch.
class LineReader {
 public:
  explicit LineReader(const std::string& text) : in_(text) {}

  Result<std::string> Next(const char* what) {
    std::string line;
    if (!std::getline(in_, line)) {
      return Status::ParseError(std::string("snapshot truncated: expected ") +
                                what);
    }
    return line;
  }

  bool AtEnd() { return in_.peek() == std::char_traits<char>::eof(); }

  // "key rest-of-line" -> rest-of-line.
  Result<std::string> Keyed(const std::string& key) {
    DMTL_ASSIGN_OR_RETURN(std::string line, Next(key.c_str()));
    if (line.compare(0, key.size() + 1, key + " ") != 0) {
      return Status::ParseError("snapshot: expected '" + key +
                                " ...', got: " + line);
    }
    return line.substr(key.size() + 1);
  }

  Result<Rational> KeyedRational(const std::string& key) {
    DMTL_ASSIGN_OR_RETURN(std::string value, Keyed(key));
    return Rational::FromString(value);
  }

  Result<bool> KeyedBool(const std::string& key) {
    DMTL_ASSIGN_OR_RETURN(std::string value, Keyed(key));
    if (value == "0") return false;
    if (value == "1") return true;
    return Status::ParseError("snapshot: " + key + " must be 0 or 1, got: " +
                              value);
  }

  Result<size_t> KeyedCount(const std::string& key) {
    DMTL_ASSIGN_OR_RETURN(std::string value, Keyed(key));
    char* end = nullptr;
    unsigned long long n = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0') {
      return Status::ParseError("snapshot: bad " + key + " count: " + value);
    }
    return static_cast<size_t>(n);
  }

 private:
  std::istringstream in_;
};

}  // namespace

uint64_t ProgramFingerprint(const Program& program) {
  const std::string text = program.ToString();
  uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;  // FNV-1a prime
  }
  return h;
}

std::string EncodeSnapshot(const SessionSnapshot& snapshot) {
  std::ostringstream out;
  out << kMagic << " v" << snapshot.version << "\n";
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(snapshot.program_fingerprint));
  out << "program " << fp << "\n";
  out << "watermark " << snapshot.watermark.ToString() << "\n";
  out << "window_min " << snapshot.window_min.ToString() << "\n";
  out << "horizon "
      << (snapshot.horizon.has_value() ? snapshot.horizon->ToString()
                                       : std::string("none"))
      << "\n";
  out << "advanced " << (snapshot.advanced ? 1 : 0) << "\n";
  out << "provenance " << (snapshot.track_provenance ? 1 : 0) << "\n";
  // Each open channel renders as a point fact at its logged-through time:
  // the statement carries the predicate, the held value, and logged_hi.
  out << "channels " << snapshot.channels.size() << "\n";
  for (const SessionSnapshot::Channel& ch : snapshot.channels) {
    out << SerializeFactLine(ch.predicate, ch.args,
                             Interval::Point(ch.logged_hi))
        << "\n";
  }
  out << "log " << snapshot.input_log.size() << "\n";
  for (const Fact& f : snapshot.input_log) {
    out << SerializeFactLine(f.predicate, f.args, f.interval) << "\n";
  }
  return out.str();
}

Result<SessionSnapshot> DecodeSnapshot(const std::string& text) {
  LineReader reader(text);
  DMTL_ASSIGN_OR_RETURN(std::string header, reader.Next("header"));
  std::istringstream head(header);
  std::string magic, version_tag;
  head >> magic >> version_tag;
  if (magic != kMagic) {
    return Status::ParseError("not a DMTL snapshot (bad magic): " + header);
  }
  if (version_tag.size() < 2 || version_tag[0] != 'v') {
    return Status::ParseError("snapshot: bad version tag: " + header);
  }
  if (version_tag.substr(1) != std::to_string(kVersion)) {
    return Status::InvalidArgument(
        "snapshot " + version_tag +
        " is not supported by this build (expected v" +
        std::to_string(kVersion) + ")");
  }

  SessionSnapshot snap;
  snap.version = kVersion;
  DMTL_ASSIGN_OR_RETURN(std::string fp_hex, reader.Keyed("program"));
  char* end = nullptr;
  snap.program_fingerprint = std::strtoull(fp_hex.c_str(), &end, 16);
  if (end == fp_hex.c_str() || *end != '\0') {
    return Status::ParseError("snapshot: bad program fingerprint: " + fp_hex);
  }
  DMTL_ASSIGN_OR_RETURN(snap.watermark, reader.KeyedRational("watermark"));
  DMTL_ASSIGN_OR_RETURN(snap.window_min, reader.KeyedRational("window_min"));
  DMTL_ASSIGN_OR_RETURN(std::string horizon, reader.Keyed("horizon"));
  if (horizon != "none") {
    DMTL_ASSIGN_OR_RETURN(Rational h, Rational::FromString(horizon));
    snap.horizon = h;
  }
  DMTL_ASSIGN_OR_RETURN(snap.advanced, reader.KeyedBool("advanced"));
  DMTL_ASSIGN_OR_RETURN(snap.track_provenance,
                        reader.KeyedBool("provenance"));

  // The counts are untrusted input: they bound loops that stop at the first
  // missing line, and never size an allocation.
  DMTL_ASSIGN_OR_RETURN(size_t num_channels, reader.KeyedCount("channels"));
  for (size_t i = 0; i < num_channels; ++i) {
    DMTL_ASSIGN_OR_RETURN(std::string line, reader.Next("channel line"));
    DMTL_ASSIGN_OR_RETURN(Fact fact, ParseFactLine(line));
    if (fact.interval.lo().infinite || fact.interval.hi().infinite ||
        fact.interval.lo().value != fact.interval.hi().value) {
      return Status::ParseError("snapshot: channel line must be a point: " +
                                line);
    }
    snap.channels.push_back(SessionSnapshot::Channel{
        fact.predicate, std::move(fact.args), fact.interval.lo().value});
  }

  DMTL_ASSIGN_OR_RETURN(size_t num_log, reader.KeyedCount("log"));
  for (size_t i = 0; i < num_log; ++i) {
    DMTL_ASSIGN_OR_RETURN(std::string line, reader.Next("log line"));
    DMTL_ASSIGN_OR_RETURN(Fact fact, ParseFactLine(line));
    snap.input_log.push_back(std::move(fact));
  }
  if (!reader.AtEnd()) {
    return Status::ParseError("snapshot: trailing data after the input log");
  }
  return snap;
}

Status WriteSnapshotFile(const SessionSnapshot& snapshot,
                         const std::string& path) {
  std::ofstream file(path);
  if (!file) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  file << EncodeSnapshot(snapshot);
  if (!file.good()) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

Result<SessionSnapshot> ReadSnapshotFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::InvalidArgument("cannot open: " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return DecodeSnapshot(buffer.str());
}

}  // namespace dmtl
