//===- perfbench/sbicheck.cpp - Independent corpus tally for the benchmark -===//
//
// Reads an SBI-CORPUS v2 directory with a decoder of its own (written from
// the layout in DESIGN.md section 10, sharing no code with
// src/feedback/Corpus.cpp) and prints, as one JSON object, the raw counts
// the benchmark's correctness checks need:
//
//   * runs, failing runs, failing runs with no seeded bug, per-bug totals;
//   * per instrumentation scheme, the number of sampled observations;
//   * for every predicate observed true in at least one failing run:
//     F, S, F(obs), S(obs) and, per seeded bug, the failing runs in which
//     both the predicate and the bug occurred.
//
// The Section 3 formulas themselves are evaluated by the Python side
// (perfbench/checks.py). From the program this tool takes only the static
// site table: which predicate belongs to which site, and its label.
//
//   sbicheck --subject=NAME --corpus=DIR
//
// Exits 1, printing the reason to stderr, on any malformed shard.
//
//===----------------------------------------------------------------------===//

#include "harness/Campaign.h"
#include "instrument/Sites.h"
#include "subjects/Subjects.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace {

struct Tally {
  uint64_t Runs = 0, Failing = 0, FailingNoBug = 0, Shards = 0, Bytes = 0;
  std::vector<uint64_t> F, S, FObs, SObs;     // Per predicate / per site.
  std::vector<uint64_t> PredBugFailing;       // Pred-major, NumBugs wide.
  std::vector<uint64_t> BugRuns, BugFailing;  // Per seeded bug.
  uint64_t SchemeSamples[3] = {0, 0, 0};
};

[[noreturn]] void fail(const std::string &Where, const char *Why) {
  std::fprintf(stderr, "sbicheck: %s: %s\n", Where.c_str(), Why);
  std::exit(1);
}

uint64_t le(const unsigned char *P, int Bytes) {
  uint64_t V = 0;
  for (int I = Bytes - 1; I >= 0; --I)
    V = (V << 8) | P[I];
  return V;
}

struct Cursor {
  const unsigned char *P, *End;
  const std::string &Where;
  uint64_t varint() {
    uint64_t V = 0;
    for (int Shift = 0; Shift < 70; Shift += 7) {
      if (P == End)
        fail(Where, "truncated varint");
      unsigned char B = *P++;
      if (Shift == 63 && (B & 0x7f) > 1)
        fail(Where, "varint overflows 64 bits");
      V |= static_cast<uint64_t>(B & 0x7f) << Shift;
      if (!(B & 0x80))
        return V;
    }
    fail(Where, "varint longer than 10 bytes");
  }
  unsigned char byte() {
    if (P == End)
      fail(Where, "truncated record");
    return *P++;
  }
};

/// Decodes one (id, count) list into \p Ids, checking ascending ids below
/// \p Limit and nonzero counts; \p Counts receives the counts.
void readPairs(Cursor &C, uint64_t Limit, std::vector<uint32_t> &Ids,
               std::vector<uint64_t> &Counts) {
  Ids.clear();
  Counts.clear();
  uint64_t N = C.varint();
  uint64_t Id = 0;
  for (uint64_t I = 0; I < N; ++I) {
    uint64_t Delta = C.varint();
    if ((I > 0 && Delta == 0) || Delta >= Limit)
      fail(C.Where, "id gap of zero or past the id range");
    Id = I == 0 ? Delta : Id + Delta;
    uint64_t Count = C.varint();
    if (Id >= Limit || Count == 0)
      fail(C.Where, "id out of range or zero count");
    Ids.push_back(static_cast<uint32_t>(Id));
    Counts.push_back(Count);
  }
}

void readShard(const std::string &Path, const sbi::SiteTable &Sites,
               const std::vector<int> &Bugs, Tally &T) {
  std::ifstream In(Path, std::ios::binary);
  std::vector<unsigned char> Bytes((std::istreambuf_iterator<char>(In)),
                                   std::istreambuf_iterator<char>());
  const size_t HeaderSize = 32, TrailerSize = 24;
  if (Bytes.size() < HeaderSize + TrailerSize ||
      std::memcmp(Bytes.data(), "SBICORP2", 8) != 0 ||
      le(Bytes.data() + 8, 4) != 2)
    fail(Path, "bad header");
  if (le(Bytes.data() + 20, 4) != Sites.numSites() ||
      le(Bytes.data() + 24, 4) != Sites.numPredicates())
    fail(Path, "dimensions differ from the subject's site table");
  const uint64_t Records = le(Bytes.data() + 28, 4);
  const unsigned char *Trailer = Bytes.data() + Bytes.size() - TrailerSize;
  const uint64_t FooterStart = le(Trailer, 8);
  // Bound each field by the file size before adding them up.
  const uint64_t Body = Bytes.size() - TrailerSize;
  if (std::memcmp(Trailer + 16, "SBICFTR2", 8) != 0 ||
      le(Trailer + 8, 4) != Records || FooterStart < HeaderSize ||
      FooterStart > Body || 8 * Records != Body - FooterStart)
    fail(Path, "bad footer");
  uint32_t Hash = 2166136261u;
  for (size_t I = HeaderSize; I < FooterStart; ++I)
    Hash = (Hash ^ Bytes[I]) * 16777619u;
  if (Hash != le(Trailer + 12, 4))
    fail(Path, "record region hash mismatch");

  Cursor C{Bytes.data() + HeaderSize, Bytes.data() + FooterStart, Path};
  std::vector<uint32_t> SiteIds, PredIds;
  std::vector<uint64_t> SiteCounts, PredCounts;
  for (uint64_t R = 0; R < Records; ++R) {
    if (le(Bytes.data() + FooterStart + 8 * R, 8) !=
        static_cast<uint64_t>(C.P - Bytes.data()))
      fail(Path, "footer offset does not match record boundary");
    const unsigned char Flags = C.byte();
    const bool Failed = Flags & 1u;
    C.byte(); // Trap kind.
    C.varint(); // Zigzag exit code.
    const uint64_t BugMask = C.varint();
    if (Flags & 2u) {
      uint64_t Len = C.varint();
      if (Len > static_cast<uint64_t>(C.End - C.P))
        fail(Path, "stack signature overruns the record region");
      C.P += Len;
    }
    readPairs(C, Sites.numSites(), SiteIds, SiteCounts);
    readPairs(C, Sites.numPredicates(), PredIds, PredCounts);

    ++T.Runs;
    if (Failed) {
      ++T.Failing;
      if (BugMask == 0)
        ++T.FailingNoBug;
    }
    for (size_t I = 0; I < SiteIds.size(); ++I) {
      ++(Failed ? T.FObs : T.SObs)[SiteIds[I]];
      T.SchemeSamples[static_cast<int>(Sites.site(SiteIds[I]).SchemeKind)] +=
          SiteCounts[I];
    }
    for (uint32_t Pred : PredIds)
      ++(Failed ? T.F : T.S)[Pred];
    for (size_t B = 0; B < Bugs.size(); ++B) {
      if (Bugs[B] < 0 || Bugs[B] > 63 || !(BugMask >> Bugs[B] & 1u))
        continue;
      ++T.BugRuns[B];
      if (!Failed)
        continue;
      ++T.BugFailing[B];
      for (uint32_t Pred : PredIds)
        ++T.PredBugFailing[Pred * Bugs.size() + B];
    }
  }
  if (C.P != C.End)
    fail(Path, "bytes left over after the last record");
  ++T.Shards;
  T.Bytes += Bytes.size();
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\') {
      Out += '\\';
      Out += Ch;
    } else if (static_cast<unsigned char>(Ch) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", Ch);
      Out += Buf;
    } else {
      Out += Ch;
    }
  }
  return Out + "\"";
}

} // namespace

int main(int Argc, char **Argv) {
  std::string SubjectName, Dir;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--subject=", 0) == 0)
      SubjectName = Arg.substr(10);
    else if (Arg.rfind("--corpus=", 0) == 0)
      Dir = Arg.substr(9);
  }
  const sbi::Subject *Subj = sbi::findSubject(SubjectName);
  if (!Subj || Dir.empty()) {
    std::fprintf(stderr, "usage: sbicheck --subject=NAME --corpus=DIR\n");
    return 2;
  }
  auto Prog = sbi::compileSubjectSource(Subj->Source, Subj->Name);
  sbi::SiteTable Sites = sbi::SiteTable::build(*Prog);
  std::vector<int> Bugs;
  for (const sbi::BugSpec &Bug : Subj->Bugs)
    Bugs.push_back(Bug.Id);

  Tally T;
  T.F.assign(Sites.numPredicates(), 0);
  T.S.assign(Sites.numPredicates(), 0);
  T.FObs.assign(Sites.numSites(), 0);
  T.SObs.assign(Sites.numSites(), 0);
  T.PredBugFailing.assign(Sites.numPredicates() * Bugs.size(), 0);
  T.BugRuns.assign(Bugs.size(), 0);
  T.BugFailing.assign(Bugs.size(), 0);

  std::vector<std::string> Shards;
  std::error_code Ec;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir, Ec)) {
    std::string Name = Entry.path().filename().string();
    if (Name.rfind("shard-", 0) == 0 && Name.size() > 11 &&
        Name.compare(Name.size() - 5, 5, ".sbic") == 0)
      Shards.push_back(Entry.path().string());
  }
  if (Ec || Shards.empty())
    fail(Dir, "no shard files");
  std::sort(Shards.begin(), Shards.end());
  for (const std::string &Path : Shards)
    readShard(Path, Sites, Bugs, T);

  std::printf("{\"runs\":%llu,\"failing\":%llu,\"failing_no_bug\":%llu,"
              "\"shards\":%llu,\"bytes\":%llu,\"bugs\":[",
              (unsigned long long)T.Runs, (unsigned long long)T.Failing,
              (unsigned long long)T.FailingNoBug,
              (unsigned long long)T.Shards, (unsigned long long)T.Bytes);
  for (size_t B = 0; B < Bugs.size(); ++B)
    std::printf("%s{\"id\":%d,\"runs\":%llu,\"failing\":%llu}", B ? "," : "",
                Bugs[B], (unsigned long long)T.BugRuns[B],
                (unsigned long long)T.BugFailing[B]);
  std::printf("],\"scheme_samples\":{\"branches\":%llu,\"returns\":%llu,"
              "\"scalar_pairs\":%llu},\"predicates\":[",
              (unsigned long long)T.SchemeSamples[0],
              (unsigned long long)T.SchemeSamples[1],
              (unsigned long long)T.SchemeSamples[2]);
  bool First = true;
  for (uint32_t P = 0; P < Sites.numPredicates(); ++P) {
    if (T.F[P] == 0)
      continue;
    const sbi::PredicateInfo &Pred = Sites.predicate(P);
    const sbi::SiteInfo &Site = Sites.site(Pred.Site);
    std::string Label = Pred.Text + "  [" + sbi::schemeName(Site.SchemeKind) +
                        " @ " + Site.Function + ":" +
                        std::to_string(Site.Line) + "]";
    std::printf("%s\n{\"id\":%u,\"label\":%s,\"F\":%llu,\"S\":%llu,"
                "\"FObs\":%llu,\"SObs\":%llu,\"bug_failing\":[",
                First ? "" : ",", P, jsonString(Label).c_str(),
                (unsigned long long)T.F[P], (unsigned long long)T.S[P],
                (unsigned long long)T.FObs[Pred.Site],
                (unsigned long long)T.SObs[Pred.Site]);
    for (size_t B = 0; B < Bugs.size(); ++B)
      std::printf("%s%llu", B ? "," : "",
                  (unsigned long long)T.PredBugFailing[P * Bugs.size() + B]);
    std::printf("]}");
    First = false;
  }
  std::printf("]}\n");
  return 0;
}
