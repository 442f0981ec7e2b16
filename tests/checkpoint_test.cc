#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "data/group_model.h"
#include "data/military_gen.h"
#include "data/trajectory_io.h"
#include "eval/export.h"
#include "stream/inactive_period.h"
#include "stream/sliding_window.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace tcomp {
namespace {

GroupDataset TestStream(uint64_t seed = 71) {
  GroupModelOptions options;
  options.num_objects = 110;
  options.num_snapshots = 36;
  options.area_size = 1800.0;
  options.min_group_size = 7;
  options.max_group_size = 14;
  options.split_probability = 0.01;
  options.seed = seed;
  return GenerateGroupStream(options);
}

DiscoveryParams TestParams() {
  DiscoveryParams params;
  params.cluster.epsilon = 20.0;
  params.cluster.mu = 4;
  params.size_threshold = 6;
  params.duration_threshold = 9;
  return params;
}

std::set<ObjectSet> Reported(const CompanionDiscoverer& d) {
  std::set<ObjectSet> out;
  for (const Companion& c : d.log().companions()) out.insert(c.objects);
  return out;
}

/// What `tcomp discover` leaves behind: its products and its state.
struct DiscoverResult {
  std::string csv;
  std::string state;
  std::string checkpoint;
};

/// The `tcomp discover` loop (records → window → inactive-period filler →
/// discoverer), resumed from `resume_from` if non-empty and saved at the
/// end. `filler_in_checkpoint` = false saves and restores the discoverer
/// alone, as checkpoints did before they carried the filler.
DiscoverResult RunDiscover(const std::vector<TrajectoryRecord>& records,
                           int inactive, const std::string& resume_from,
                           bool filler_in_checkpoint = true) {
  auto discoverer = MakeDiscoverer(Algorithm::kSmartClosed, TestParams());
  InactivePeriodFiller filler(inactive);
  CheckpointSection* stream = filler_in_checkpoint ? &filler : nullptr;
  if (!resume_from.empty()) {
    std::istringstream in(resume_from);
    EXPECT_TRUE(LoadDiscoverer(discoverer.get(), in, stream).ok());
  }
  SlidingWindowOptions wopts;
  wopts.window_length = 60.0;
  SlidingWindowSnapshotter window(wopts);
  std::vector<Snapshot> ready;
  for (const TrajectoryRecord& r : records) {
    EXPECT_TRUE(window.Push(r, &ready).ok());
    for (const Snapshot& snap : ready) {
      discoverer->ProcessSnapshot(filler.Fill(snap), nullptr);
    }
    ready.clear();
  }
  window.Flush(&ready);
  for (const Snapshot& snap : ready) {
    discoverer->ProcessSnapshot(filler.Fill(snap), nullptr);
  }
  DiscoverResult result;
  std::ostringstream csv;
  WriteCompanionsCsv(discoverer->log().companions(), csv);
  result.csv = csv.str();
  result.state = testing_util::NormalizedState(*discoverer);
  std::ostringstream saved;
  EXPECT_TRUE(SaveDiscoverer(*discoverer, saved, stream).ok());
  result.checkpoint = saved.str();
  return result;
}

/// Resume forgot the inactive-period filler: a run split at a window
/// boundary and resumed with --inactive 3 must equal the uninterrupted
/// run — products, discoverer state and filler state — on a stream where
/// objects drop out.
TEST(CheckpointStreamStateTest, InactiveFillSurvivesDiscoverResume) {
  GroupDataset data = TestStream(72);
  std::vector<TrajectoryRecord> all = StreamToRecords(data.stream, 60.0);
  std::vector<TrajectoryRecord> records;
  Pcg32 rng(7);
  for (const TrajectoryRecord& r : all) {
    if (rng.NextDouble() >= 0.15) records.push_back(r);
  }
  const double split = 60.0 * static_cast<double>(data.stream.size() / 2);
  std::vector<TrajectoryRecord> head;
  std::vector<TrajectoryRecord> tail;
  for (const TrajectoryRecord& r : records) {
    (r.timestamp < split ? head : tail).push_back(r);
  }

  const DiscoverResult whole = RunDiscover(records, 3, "");
  const DiscoverResult first = RunDiscover(head, 3, "");
  const DiscoverResult resumed = RunDiscover(tail, 3, first.checkpoint);
  EXPECT_FALSE(whole.csv.empty());
  EXPECT_EQ(resumed.csv, whole.csv);
  EXPECT_EQ(resumed.state, whole.state);
  // The filler's own section (the stats line holds wall-clock timings).
  const auto stream_section = [](const std::string& checkpoint) {
    return checkpoint.substr(checkpoint.find("\nstream "));
  };
  EXPECT_EQ(stream_section(resumed.checkpoint),
            stream_section(whole.checkpoint));

  // The control: without the filler in the checkpoint the resumed run
  // diverges on this stream, and without filling there is nothing to
  // forget.
  const DiscoverResult forgetful = RunDiscover(
      tail, 3, RunDiscover(head, 3, "", false).checkpoint, false);
  EXPECT_NE(forgetful.csv, whole.csv);
  const DiscoverResult strict_first = RunDiscover(head, 0, "");
  EXPECT_EQ(RunDiscover(tail, 0, strict_first.checkpoint).csv,
            RunDiscover(records, 0, "").csv);
}

TEST(CheckpointStreamStateTest, CorruptFillerSectionIsRejected) {
  GroupDataset data = TestStream(73);
  const DiscoverResult run =
      RunDiscover(StreamToRecords(data.stream, 60.0), 2, "");
  const std::string good = run.checkpoint;
  const size_t at = good.find("filler ");
  ASSERT_NE(at, std::string::npos);
  const size_t end_at = good.rfind("end\n");
  const std::string head = good.substr(0, at);
  const std::string bad_cases[] = {
      head + "fillerX 5 0\nend\n",
      head + "filler -1 0\nend\n",
      head + "filler 5 999999999\nend\n",
      // Ids out of order.
      head + "filler 5 2\n9 1 0x1p+0 0x1p+0 0x0p+0 0x0p+0\n"
             "4 1 0x1p+0 0x1p+0 0x0p+0 0x0p+0\nend\n",
      // A sighting not older than the snapshot counter.
      head + "filler 5 1\n9 5 0x1p+0 0x1p+0 0x0p+0 0x0p+0\nend\n",
      // Non-finite and unparsable coordinates.
      head + "filler 5 1\n9 1 inf 0x1p+0 0x0p+0 0x0p+0\nend\n",
      head + "filler 5 1\n9 1 0x1p+0 zz 0x0p+0 0x0p+0\nend\n",
      // Truncated record.
      head + "filler 5 1\n9 1 0x1p+0\n",
  };
  for (const std::string& bad : bad_cases) {
    auto fresh = MakeDiscoverer(Algorithm::kSmartClosed, TestParams());
    InactivePeriodFiller filler(2);
    std::istringstream in(bad);
    Status st = LoadDiscoverer(fresh.get(), in, &filler);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << bad.substr(at);
  }
  // The good record loads; without a filler to restore into it is
  // refused instead of silently dropping the section.
  ASSERT_NE(end_at, std::string::npos);
  {
    auto fresh = MakeDiscoverer(Algorithm::kSmartClosed, TestParams());
    InactivePeriodFiller filler(2);
    std::istringstream in(good);
    EXPECT_TRUE(LoadDiscoverer(fresh.get(), in, &filler).ok());
  }
  {
    auto fresh = MakeDiscoverer(Algorithm::kSmartClosed, TestParams());
    std::istringstream in(good);
    EXPECT_EQ(LoadDiscoverer(fresh.get(), in).code(),
              StatusCode::kInvalidArgument);
  }
}

/// The defining property: save mid-stream, restore into a fresh instance,
/// finish the stream — identical companions and identical deterministic
/// counters to an uninterrupted run.
class CheckpointResumeTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(CheckpointResumeTest, ResumeEqualsUninterruptedRun) {
  GroupDataset data = TestStream();
  DiscoveryParams params = TestParams();
  const size_t cut = data.stream.size() / 2;

  // Uninterrupted reference run.
  auto reference = MakeDiscoverer(GetParam(), params);
  for (const Snapshot& s : data.stream) {
    reference->ProcessSnapshot(s, nullptr);
  }

  // Interrupted run: first half, checkpoint, restore, second half.
  auto first = MakeDiscoverer(GetParam(), params);
  for (size_t t = 0; t < cut; ++t) {
    first->ProcessSnapshot(data.stream[t], nullptr);
  }
  std::stringstream buffer;
  ASSERT_TRUE(SaveDiscoverer(*first, buffer).ok());

  auto resumed = MakeDiscoverer(GetParam(), params);
  ASSERT_TRUE(LoadDiscoverer(resumed.get(), buffer).ok());
  for (size_t t = cut; t < data.stream.size(); ++t) {
    resumed->ProcessSnapshot(data.stream[t], nullptr);
  }

  EXPECT_EQ(Reported(*resumed), Reported(*reference));
  EXPECT_EQ(resumed->stats().intersections,
            reference->stats().intersections);
  EXPECT_EQ(resumed->stats().companions_reported,
            reference->stats().companions_reported);
  EXPECT_EQ(resumed->stats().candidate_objects_peak,
            reference->stats().candidate_objects_peak);
  EXPECT_EQ(resumed->stats().snapshots, reference->stats().snapshots);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, CheckpointResumeTest,
    ::testing::Values(Algorithm::kClusteringIntersection,
                      Algorithm::kSmartClosed, Algorithm::kBuddy),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      return AlgorithmName(info.param);
    });

TEST(CheckpointTest, RoundTripPreservesLogDetails) {
  MilitaryOptions options;
  options.num_units = 100;
  options.num_teams = 4;
  options.num_snapshots = 30;
  MilitaryDataset md = GenerateMilitary(options);

  DiscoveryParams params = TestParams();
  params.cluster.epsilon = 24.0;
  params.cluster.mu = 5;
  auto original = MakeDiscoverer(Algorithm::kBuddy, params);
  for (const Snapshot& s : md.stream) {
    original->ProcessSnapshot(s, nullptr);
  }
  ASSERT_GT(original->log().size(), 0u);

  std::stringstream buffer;
  ASSERT_TRUE(SaveDiscoverer(*original, buffer).ok());
  auto restored = MakeDiscoverer(Algorithm::kBuddy, params);
  ASSERT_TRUE(LoadDiscoverer(restored.get(), buffer).ok());

  const auto& a = original->log().companions();
  const auto& b = restored->log().companions();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].objects, b[i].objects);
    EXPECT_DOUBLE_EQ(a[i].duration, b[i].duration);
    EXPECT_EQ(a[i].snapshot_index, b[i].snapshot_index);
  }
}

TEST(CheckpointTest, AlgorithmMismatchRejected) {
  auto sc = MakeDiscoverer(Algorithm::kSmartClosed, TestParams());
  std::stringstream buffer;
  ASSERT_TRUE(SaveDiscoverer(*sc, buffer).ok());
  auto bu = MakeDiscoverer(Algorithm::kBuddy, TestParams());
  Status s = LoadDiscoverer(bu.get(), buffer);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, CorruptHeaderRejected) {
  auto sc = MakeDiscoverer(Algorithm::kSmartClosed, TestParams());
  std::stringstream bad("not-a-checkpoint 1 SC\n");
  EXPECT_EQ(LoadDiscoverer(sc.get(), bad).code(),
            StatusCode::kCorruption);
  std::stringstream empty;
  EXPECT_EQ(LoadDiscoverer(sc.get(), empty).code(),
            StatusCode::kCorruption);
  std::stringstream version("tcomp-checkpoint 99 SC\n");
  EXPECT_EQ(LoadDiscoverer(sc.get(), version).code(),
            StatusCode::kCorruption);
}

TEST(CheckpointTest, TruncatedBodyRejected) {
  GroupDataset data = TestStream();
  auto sc = MakeDiscoverer(Algorithm::kSmartClosed, TestParams());
  for (size_t t = 0; t < 12; ++t) {
    sc->ProcessSnapshot(data.stream[t], nullptr);
  }
  std::stringstream buffer;
  ASSERT_TRUE(SaveDiscoverer(*sc, buffer).ok());
  std::string text = buffer.str();
  std::stringstream truncated(text.substr(0, text.size() / 2));
  auto fresh = MakeDiscoverer(Algorithm::kSmartClosed, TestParams());
  EXPECT_FALSE(LoadDiscoverer(fresh.get(), truncated).ok());
}

TEST(CheckpointTest, FileRoundTrip) {
  GroupDataset data = TestStream();
  auto bu = MakeDiscoverer(Algorithm::kBuddy, TestParams());
  for (size_t t = 0; t < 15; ++t) {
    bu->ProcessSnapshot(data.stream[t], nullptr);
  }
  std::string path = ::testing::TempDir() + "/state.ckpt";
  ASSERT_TRUE(SaveDiscovererToFile(*bu, path).ok());
  auto restored = MakeDiscoverer(Algorithm::kBuddy, TestParams());
  ASSERT_TRUE(LoadDiscovererFromFile(restored.get(), path).ok());
  EXPECT_EQ(Reported(*restored), Reported(*bu));
  EXPECT_FALSE(
      LoadDiscovererFromFile(restored.get(), "/no/such/file").ok());
}

/// A writer that crashed mid-save leaves a partial .tmp sibling; the
/// checkpoint at `path` must stay loadable, and the next successful save
/// must replace the junk.
TEST(CheckpointTest, AtomicSaveSurvivesCrashedWriter) {
  GroupDataset data = TestStream();
  auto bu = MakeDiscoverer(Algorithm::kBuddy, TestParams());
  for (size_t t = 0; t < 12; ++t) {
    bu->ProcessSnapshot(data.stream[t], nullptr);
  }
  std::string path = ::testing::TempDir() + "/crashed.ckpt";
  ASSERT_TRUE(SaveDiscovererToFile(*bu, path).ok());

  // Simulate a crash: a truncated garbage .tmp next to the good file.
  {
    std::ofstream junk(path + ".tmp");
    junk << "tcomp-checkpoint 1 BU\ncommon 3\nsta";
  }
  auto restored = MakeDiscoverer(Algorithm::kBuddy, TestParams());
  ASSERT_TRUE(LoadDiscovererFromFile(restored.get(), path).ok());
  EXPECT_EQ(Reported(*restored), Reported(*bu));

  // The next save overwrites the junk and renames it away.
  ASSERT_TRUE(SaveDiscovererToFile(*bu, path).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  ASSERT_TRUE(LoadDiscovererFromFile(restored.get(), path).ok());
}

/// A save that cannot even open its temporary must fail without touching
/// the existing checkpoint.
TEST(CheckpointTest, FailedSaveLeavesPreviousCheckpointIntact) {
  GroupDataset data = TestStream();
  auto bu = MakeDiscoverer(Algorithm::kBuddy, TestParams());
  for (size_t t = 0; t < 12; ++t) {
    bu->ProcessSnapshot(data.stream[t], nullptr);
  }
  std::string path = ::testing::TempDir() + "/blocked.ckpt";
  ASSERT_TRUE(SaveDiscovererToFile(*bu, path).ok());

  // A directory squatting on the .tmp name makes the open fail.
  ASSERT_TRUE(std::filesystem::create_directory(path + ".tmp"));
  for (size_t t = 12; t < 16; ++t) {
    bu->ProcessSnapshot(data.stream[t], nullptr);
  }
  EXPECT_FALSE(SaveDiscovererToFile(*bu, path).ok());

  // The earlier checkpoint is untouched and still loads.
  auto restored = MakeDiscoverer(Algorithm::kBuddy, TestParams());
  EXPECT_TRUE(LoadDiscovererFromFile(restored.get(), path).ok());
  std::filesystem::remove(path + ".tmp");
}

/// Implausibly large counts in a tampered checkpoint must be rejected as
/// corruption instead of fed to `resize` (a multi-GB allocation).
TEST(CheckpointTest, ImplausibleLogCountRejected) {
  GroupDataset data = TestStream();
  auto sc = MakeDiscoverer(Algorithm::kSmartClosed, TestParams());
  for (size_t t = 0; t < 12; ++t) {
    sc->ProcessSnapshot(data.stream[t], nullptr);
  }
  std::stringstream buffer;
  ASSERT_TRUE(SaveDiscoverer(*sc, buffer).ok());
  std::string text = buffer.str();
  size_t at = text.find("\nlog ");
  ASSERT_NE(at, std::string::npos);
  size_t num = at + 5;
  size_t end = text.find('\n', num);
  text.replace(num, end - num, "123456789012");

  std::stringstream tampered(text);
  auto fresh = MakeDiscoverer(Algorithm::kSmartClosed, TestParams());
  Status s = LoadDiscoverer(fresh.get(), tampered);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST(CheckpointTest, ImplausibleCompanionSizeRejected) {
  // Handcrafted checkpoint whose single log entry claims 2^40 members.
  std::stringstream bad(
      "tcomp-checkpoint 3 SC\n"
      "common 3\n"
      "stats 3 0 0 0 0 1 0 0 0 0 0 0 0 0 0 0 0\n"
      "log 1\n"
      "2 7 1099511627776 1 2 3\n"
      "end\n");
  auto sc = MakeDiscoverer(Algorithm::kSmartClosed, TestParams());
  Status s = LoadDiscoverer(sc.get(), bad);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("implausible companion size"),
            std::string::npos)
      << s.ToString();
}

// ---------------------------------------------------------------------
// Object sets read from a checkpoint must keep the ObjectSet invariant
// (strictly ascending), and the companion log must not repeat a set. A
// tampered file that breaks either is Corruption, never a run that
// quietly reports a reversed or duplicated companion later.

/// A discoverer of `algorithm` after the first `snapshots` snapshots of
/// TestStream(), saved as checkpoint lines.
std::vector<std::string> SavedLines(Algorithm algorithm, size_t snapshots) {
  GroupDataset data = TestStream();
  auto d = MakeDiscoverer(algorithm, TestParams());
  for (size_t t = 0; t < snapshots && t < data.stream.size(); ++t) {
    d->ProcessSnapshot(data.stream[t], nullptr);
  }
  std::stringstream buffer;
  EXPECT_TRUE(SaveDiscoverer(*d, buffer).ok());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(buffer, line)) lines.push_back(line);
  return lines;
}

/// Index of the first line that starts with `prefix` and has at least
/// one record after it; fails the test if there is none.
size_t SectionWithRecords(const std::vector<std::string>& lines,
                          const std::string& prefix) {
  for (size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind(prefix, 0) == 0) {
      std::istringstream header(lines[i].substr(prefix.size()));
      size_t count = 0;
      header >> count;
      EXPECT_GT(count, 0u) << "test wants a non-empty " << prefix;
      return i;
    }
  }
  ADD_FAILURE() << "no " << prefix << "section";
  return lines.size();
}

std::vector<std::string> Fields(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> fields;
  std::string f;
  while (in >> f) fields.push_back(f);
  return fields;
}

std::string JoinFields(const std::vector<std::string>& fields) {
  std::string out;
  for (const std::string& f : fields) out += (out.empty() ? "" : " ") + f;
  return out;
}

Status LoadLines(Algorithm algorithm, const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  std::stringstream in(text);
  auto d = MakeDiscoverer(algorithm, TestParams());
  return LoadDiscoverer(d.get(), in);
}

TEST(CheckpointTest, DescendingCandidateRejected) {
  for (Algorithm algorithm :
       {Algorithm::kClusteringIntersection, Algorithm::kSmartClosed}) {
    std::vector<std::string> lines = SavedLines(algorithm, 12);
    ASSERT_TRUE(LoadLines(algorithm, lines).ok());
    const size_t at = SectionWithRecords(lines, "candidates ");
    ASSERT_LT(at + 1, lines.size());
    // "duration n id_1 ... id_n": reverse the ids.
    std::vector<std::string> f = Fields(lines[at + 1]);
    ASSERT_GE(f.size(), 4u);
    std::reverse(f.begin() + 2, f.end());
    lines[at + 1] = JoinFields(f);
    Status s = LoadLines(algorithm, lines);
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << AlgorithmName(algorithm);
    EXPECT_NE(s.message().find("not strictly ascending"), std::string::npos)
        << s.ToString();
  }
}

TEST(CheckpointTest, RepeatedCandidateMemberRejected) {
  for (Algorithm algorithm :
       {Algorithm::kClusteringIntersection, Algorithm::kSmartClosed}) {
    std::vector<std::string> lines = SavedLines(algorithm, 12);
    const size_t at = SectionWithRecords(lines, "candidates ");
    ASSERT_LT(at + 1, lines.size());
    // 64 copies of id 7, keeping the record's duration.
    std::vector<std::string> f = {Fields(lines[at + 1])[0], "64"};
    f.insert(f.end(), 64, "7");
    lines[at + 1] = JoinFields(f);
    Status s = LoadLines(algorithm, lines);
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << AlgorithmName(algorithm);
    EXPECT_NE(s.message().find("not strictly ascending"), std::string::npos)
        << s.ToString();
  }
}

TEST(CheckpointTest, RepeatedLogEntryRejected) {
  std::vector<std::string> lines =
      SavedLines(Algorithm::kSmartClosed, TestStream().stream.size());
  ASSERT_TRUE(LoadLines(Algorithm::kSmartClosed, lines).ok());
  const size_t at = SectionWithRecords(lines, "log ");
  ASSERT_LT(at + 1, lines.size());
  // Repeat the first entry and count it.
  const size_t count = std::stoul(Fields(lines[at])[1]);
  lines[at] = "log " + std::to_string(count + 1);
  lines.insert(lines.begin() + static_cast<ptrdiff_t>(at) + 1, lines[at + 1]);
  Status s = LoadLines(Algorithm::kSmartClosed, lines);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("repeats"), std::string::npos) << s.ToString();
}

TEST(CheckpointTest, DescendingLogEntryRejected) {
  // BU's own sections are its own; its log goes through the shared
  // reader like every algorithm's.
  std::vector<std::string> lines =
      SavedLines(Algorithm::kBuddy, TestStream().stream.size());
  ASSERT_TRUE(LoadLines(Algorithm::kBuddy, lines).ok());
  const size_t at = SectionWithRecords(lines, "log ");
  ASSERT_LT(at + 1, lines.size());
  // "snapshot_index duration n id_1 ... id_n": reverse the ids.
  std::vector<std::string> f = Fields(lines[at + 1]);
  ASSERT_GE(f.size(), 5u);
  std::reverse(f.begin() + 3, f.end());
  lines[at + 1] = JoinFields(f);
  Status s = LoadLines(Algorithm::kBuddy, lines);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("not strictly ascending"), std::string::npos)
      << s.ToString();
}

// ---------------------------------------------------------------------
// BU's own sections (buddyset, lastpos, index, candidates) index buddy
// tables by object id and assume ascending, disjoint member sets. Every
// shape below once loaded silently; each must now be Corruption.

/// Index of the first record line after the line starting with `header`
/// whose fields satisfy `pred`; fails the test if there is none.
template <typename Pred>
size_t RecordWhere(const std::vector<std::string>& lines,
                   const std::string& header, Pred pred) {
  const size_t at = SectionWithRecords(lines, header);
  const size_t count = std::stoul(Fields(lines[at]).back());
  for (size_t i = at + 1; i <= at + count && i < lines.size(); ++i) {
    if (pred(Fields(lines[i]))) return i;
  }
  ADD_FAILURE() << "no matching " << header << "record";
  return lines.size();
}

/// A BU checkpoint of the whole TestStream(): it has multi-member
/// buddies, index entries, and candidates with several tokens and
/// several loose objects.
std::vector<std::string> BuLines() {
  return SavedLines(Algorithm::kBuddy, TestStream().stream.size());
}

void ExpectBuCorruption(const std::vector<std::string>& lines,
                        const std::string& message) {
  Status s = LoadLines(Algorithm::kBuddy, lines);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find(message), std::string::npos) << s.ToString();
}

TEST(CheckpointTest, BuddyMembersOutOfOrderRejected) {
  std::vector<std::string> lines = BuLines();
  ASSERT_TRUE(LoadLines(Algorithm::kBuddy, lines).ok());
  // "id radius x y n m_1 ... m_n" with n ≥ 2: reverse the members.
  const size_t at = RecordWhere(lines, "buddyset ", [](const auto& f) {
    return f.size() >= 7;
  });
  ASSERT_LT(at, lines.size());
  std::vector<std::string> f = Fields(lines[at]);
  std::reverse(f.begin() + 5, f.end());
  lines[at] = JoinFields(f);
  ExpectBuCorruption(lines, "buddy members not strictly ascending");
}

TEST(CheckpointTest, IndexMembersOutOfOrderRejected) {
  std::vector<std::string> lines = BuLines();
  // "id n m_1 ... m_n" with n ≥ 2.
  const size_t at = RecordWhere(lines, "index ", [](const auto& f) {
    return f.size() >= 4;
  });
  ASSERT_LT(at, lines.size());
  std::vector<std::string> f = Fields(lines[at]);
  std::reverse(f.begin() + 2, f.end());
  lines[at] = JoinFields(f);
  ExpectBuCorruption(lines, "index members not strictly ascending");
}

/// Fields of a candidate record "duration size nb b_1..b_nb no o_1..o_no":
/// the offset of the object count.
size_t ObjectCountField(const std::vector<std::string>& f) {
  return 3 + std::stoul(f[2]);
}

TEST(CheckpointTest, CandidateObjectsOutOfOrderRejected) {
  std::vector<std::string> lines = BuLines();
  const size_t at = RecordWhere(lines, "candidates ", [](const auto& f) {
    return std::stoul(f[ObjectCountField(f)]) >= 2;
  });
  ASSERT_LT(at, lines.size());
  std::vector<std::string> f = Fields(lines[at]);
  std::reverse(f.begin() + static_cast<ptrdiff_t>(ObjectCountField(f)) + 1,
               f.end());
  lines[at] = JoinFields(f);
  ExpectBuCorruption(lines, "candidate members not strictly ascending");
}

TEST(CheckpointTest, CandidateTokensOutOfOrderRejected) {
  std::vector<std::string> lines = BuLines();
  const size_t at = RecordWhere(lines, "candidates ", [](const auto& f) {
    return std::stoul(f[2]) >= 2;
  });
  ASSERT_LT(at, lines.size());
  std::vector<std::string> f = Fields(lines[at]);
  std::reverse(f.begin() + 3,
               f.begin() + static_cast<ptrdiff_t>(ObjectCountField(f)));
  lines[at] = JoinFields(f);
  ExpectBuCorruption(lines, "candidate tokens not strictly ascending");
}

TEST(CheckpointTest, BuddyIdsOutOfOrderRejected) {
  std::vector<std::string> lines = BuLines();
  const size_t at = SectionWithRecords(lines, "buddyset ");
  ASSERT_LT(at + 2, lines.size());
  std::swap(lines[at + 1], lines[at + 2]);
  ExpectBuCorruption(lines, "buddy ids not strictly ascending");
}

TEST(CheckpointTest, BuddyIdAtNextIdRejected) {
  std::vector<std::string> lines = BuLines();
  const size_t at = SectionWithRecords(lines, "buddyset ");
  const std::vector<std::string> header = Fields(lines[at]);
  const size_t last = at + std::stoul(header[2]);
  ASSERT_LT(last, lines.size());
  // The newest buddy claims the id the set would hand out next.
  std::vector<std::string> f = Fields(lines[last]);
  f[0] = header[1];
  lines[last] = JoinFields(f);
  ExpectBuCorruption(lines, "below next_id");
}

TEST(CheckpointTest, ObjectInTwoBuddiesRejected) {
  std::vector<std::string> lines = BuLines();
  const size_t at = SectionWithRecords(lines, "buddyset ");
  ASSERT_LT(at + 2, lines.size());
  // Buddy 2 also lists buddy 1's first member.
  const std::string stolen = Fields(lines[at + 1])[5];
  std::vector<std::string> f = Fields(lines[at + 2]);
  std::vector<ObjectId> members;
  for (size_t k = 5; k < f.size(); ++k) members.push_back(std::stoul(f[k]));
  members.push_back(static_cast<ObjectId>(std::stoul(stolen)));
  std::sort(members.begin(), members.end());
  f.resize(4);
  f.push_back(std::to_string(members.size()));
  for (ObjectId o : members) f.push_back(std::to_string(o));
  lines[at + 2] = JoinFields(f);
  ExpectBuCorruption(lines, "two buddies");
}

TEST(CheckpointTest, EmptyBuddyRejected) {
  std::vector<std::string> lines = BuLines();
  const size_t at = SectionWithRecords(lines, "buddyset ");
  ASSERT_LT(at + 1, lines.size());
  std::vector<std::string> f = Fields(lines[at + 1]);
  f.resize(4);
  f.push_back("0");
  lines[at + 1] = JoinFields(f);
  ExpectBuCorruption(lines, "empty buddy");
}

TEST(CheckpointTest, LastposOutOfOrderRejected) {
  std::vector<std::string> lines = BuLines();
  const size_t at = SectionWithRecords(lines, "lastpos ");
  ASSERT_LT(at + 2, lines.size());
  std::swap(lines[at + 1], lines[at + 2]);
  ExpectBuCorruption(lines, "lastpos ids not strictly ascending");
}

TEST(CheckpointTest, LastposWithoutBuddyRejected) {
  std::vector<std::string> lines = BuLines();
  const size_t at = SectionWithRecords(lines, "lastpos ");
  const size_t count = std::stoul(Fields(lines[at])[1]);
  // One more sighting, of an id beyond every buddy member.
  lines[at] = "lastpos " + std::to_string(count + 1);
  lines.insert(lines.begin() + static_cast<ptrdiff_t>(at + count + 1),
               "4000000 1 2");
  ExpectBuCorruption(lines, "lastpos ids differ from the buddy members");
}

TEST(CheckpointTest, NegativeBuddyRadiusRejected) {
  std::vector<std::string> lines = BuLines();
  const size_t at = SectionWithRecords(lines, "buddyset ");
  ASSERT_LT(at + 1, lines.size());
  std::vector<std::string> f = Fields(lines[at + 1]);
  f[1] = "-0.5";
  lines[at + 1] = JoinFields(f);
  ExpectBuCorruption(lines, "radius out of range");
}

TEST(CheckpointTest, NonFiniteBuddyStateRejected) {
  // The stream extraction already refuses these spellings; the loader's
  // finiteness checks back it up. Radius, center sum and last position
  // alike must come back Corruption, never a NaN in the buddy tables.
  const std::vector<std::string> base = BuLines();
  const size_t buddy = SectionWithRecords(base, "buddyset ") + 1;
  const size_t pos = SectionWithRecords(base, "lastpos ") + 1;
  for (const char* bad : {"nan", "inf", "-inf", "1e999"}) {
    for (const auto& [line, field] :
         {std::pair<size_t, size_t>{buddy, 1}, {buddy, 2}, {buddy, 3},
          {pos, 1}, {pos, 2}}) {
      std::vector<std::string> lines = base;
      std::vector<std::string> f = Fields(lines[line]);
      f[field] = bad;
      lines[line] = JoinFields(f);
      EXPECT_EQ(LoadLines(Algorithm::kBuddy, lines).code(),
                StatusCode::kCorruption)
          << bad << " at line " << line << " field " << field;
    }
  }
}

}  // namespace
}  // namespace tcomp
