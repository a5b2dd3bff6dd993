#ifndef DMTL_STORAGE_SNAPSHOT_H_
#define DMTL_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/ast/program.h"
#include "src/common/status.h"
#include "src/storage/database.h"

namespace dmtl {

// A versioned, text-encoded checkpoint of a live session, taken at a round
// barrier: the state a cold replay cannot rebuild, so a restart needs no
// re-parse of derived coverage.
//
// Captured state (format v2):
//   - window position: watermark, window minimum, optional sliding horizon,
//     and whether the session has advanced yet
//   - whether the session tracks provenance
//   - open step channels (predicate, held value, coverage logged through)
//   - the input log (clamped by past slides)
//   - a program fingerprint, so a snapshot is never restored against a
//     different rule set
//
// The database and provenance records are not stored. The streaming
// invariant makes the database one cold Materialize over the input log on
// [window_min, watermark], so Restore re-derives both: the database
// byte-identical, provenance coverage-equal (per-record rule/round
// attribution is the cold run's). A v1 snapshot, which carried both, is
// refused by the version check.
//
// The encoding reuses the fact-statement format of SerializeDatabase for
// every fact-shaped field, so snapshots stay human-readable and parseable
// with the ordinary parser. Size follows the input log, not the database.
struct SessionSnapshot {
  // An open step channel (see EngineSession::PushStep): the held value
  // and the time through which its coverage has been logged.
  struct Channel {
    PredicateId predicate = 0;
    Tuple args;
    Rational logged_hi;
  };

  int version = 2;
  uint64_t program_fingerprint = 0;
  Rational watermark;
  Rational window_min;
  std::optional<Rational> horizon;
  // Whether the session has executed its first advance; gates the
  // "push strictly above the watermark" finality check after restore.
  bool advanced = false;
  bool track_provenance = true;
  std::vector<Channel> channels;
  std::vector<Fact> input_log;
};

// Stable FNV-1a 64-bit fingerprint of the program's printed form. Two
// programs that print identically materialize identically, which is the
// property snapshot restore needs.
uint64_t ProgramFingerprint(const Program& program);

// Renders the snapshot in the versioned "DMTL-SNAPSHOT v2" text format.
std::string EncodeSnapshot(const SessionSnapshot& snapshot);

// Parses EncodeSnapshot output. Unknown magic or a version this build does
// not understand is an error, never a silent partial decode.
Result<SessionSnapshot> DecodeSnapshot(const std::string& text);

// File convenience wrappers.
Status WriteSnapshotFile(const SessionSnapshot& snapshot,
                         const std::string& path);
Result<SessionSnapshot> ReadSnapshotFile(const std::string& path);

}  // namespace dmtl

#endif  // DMTL_STORAGE_SNAPSHOT_H_
