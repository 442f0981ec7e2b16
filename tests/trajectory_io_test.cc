#include "data/trajectory_io.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic_gen.h"
#include "service/protocol.h"
#include "util/random.h"

namespace tcomp {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

/// A comment line that ends `before_edge` bytes before the first block
/// edge, so the row written after it starts there.
std::string PadToBlockEdge(size_t before_edge) {
  std::string line(kReadBlockBytes - before_edge, 'x');
  line.front() = '#';
  line.back() = '\n';
  return line;
}

TEST(TrajectoryIoTest, CsvRoundTrip) {
  std::vector<TrajectoryRecord> records = {
      {1, 0.0, {1.5, 2.5}},
      {2, 60.0, {-3.25, 4.0}},
      {1, 120.0, {7.0, 8.0}},
  };
  std::string path = TempPath("roundtrip.csv");
  ASSERT_TRUE(WriteRecordCsv(path, records).ok());

  std::vector<TrajectoryRecord> back;
  ASSERT_TRUE(ReadRecordCsv(path, &back).ok());
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0].object, 1u);
  EXPECT_DOUBLE_EQ(back[0].pos.x, 1.5);
  EXPECT_DOUBLE_EQ(back[1].pos.x, -3.25);
  EXPECT_DOUBLE_EQ(back[2].timestamp, 120.0);
}

TEST(TrajectoryIoTest, ReadMissingFileFails) {
  std::vector<TrajectoryRecord> records;
  Status s = ReadRecordCsv("/nonexistent/really/not.csv", &records);
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST(TrajectoryIoTest, RejectsTrailingGarbageInNumericField) {
  // Regression: ParseDouble used to accept any numeric *prefix*, so
  // "7.5oops" silently loaded as 7.5 — a corrupt dataset read back OK.
  std::string path = TempPath("trailing_garbage.csv");
  {
    std::ofstream out(path);
    out << "1,0.0,7.5oops,2.0\n";
  }
  std::vector<TrajectoryRecord> records;
  Status s = ReadRecordCsv(path, &records);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
}

TEST(TrajectoryIoTest, RejectsDoubleDecimalField) {
  // "1.2.3" is a strtod prefix parse ("1.2"); it must be Corruption.
  std::string path = TempPath("double_decimal.csv");
  {
    std::ofstream out(path);
    out << "1,0.0,1.2.3,2.0\n";
  }
  std::vector<TrajectoryRecord> records;
  Status s = ReadRecordCsv(path, &records);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
}

TEST(TrajectoryIoTest, AcceptsWindowsLineEndings) {
  // The strict full-field parse must still tolerate "\r"-terminated rows.
  std::string path = TempPath("crlf.csv");
  {
    std::ofstream out(path);
    out << "1,0.0,1.5,2.5\r\n2,60.0,3.0,4.0\r\n";
  }
  std::vector<TrajectoryRecord> records;
  ASSERT_TRUE(ReadRecordCsv(path, &records).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_DOUBLE_EQ(records[0].pos.y, 2.5);
  EXPECT_DOUBLE_EQ(records[1].timestamp, 60.0);
}

TEST(TrajectoryIoTest, MalformedRowReportsCorruption) {
  std::string path = TempPath("bad.csv");
  {
    std::ofstream out(path);
    out << "1,2.0,3.0\n";  // only three fields
  }
  std::vector<TrajectoryRecord> records;
  Status s = ReadRecordCsv(path, &records);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST(TrajectoryIoTest, SkipsCommentsAndHeaders) {
  std::string path = TempPath("hdr.csv");
  {
    std::ofstream out(path);
    out << "# comment line\n";
    out << "object_id,timestamp,x,y\n";
    out << "4,1.0,2.0,3.0\n";
  }
  std::vector<TrajectoryRecord> records;
  ASSERT_TRUE(ReadRecordCsv(path, &records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].object, 4u);
}

TEST(TrajectoryIoTest, GeoLifePltParses) {
  std::string path = TempPath("traj.plt");
  {
    std::ofstream out(path);
    // Six header lines, as in real .plt files.
    out << "Geolife trajectory\nWGS 84\nAltitude is in Feet\nReserved 3\n"
        << "0,2,255,My Track,0,0,2,8421376\n0\n";
    out << "39.906631,116.385564,0,492,39745.1,2008-10-24,02:09:59\n";
    out << "39.906554,116.385625,0,492,39745.2,2008-10-24,02:10:00\n";
  }
  std::vector<GpsRecord> records;
  ASSERT_TRUE(ReadGeoLifePlt(path, /*object=*/17, &records).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].object, 17u);
  EXPECT_NEAR(records[0].pos.lat, 39.906631, 1e-9);
  EXPECT_NEAR(records[0].pos.lon, 116.385564, 1e-9);
  EXPECT_NEAR(records[1].timestamp - records[0].timestamp, 0.1 * 86400.0,
              1e-3);
}

TEST(TrajectoryIoTest, TDriveParses) {
  std::string path = TempPath("taxi.txt");
  {
    std::ofstream out(path);
    out << "1131,2008-02-02 13:30:44,116.35022,39.88902\n";
    out << "1131,2008-02-02 13:35:44,116.34542,39.88790\n";
  }
  std::vector<GpsRecord> records;
  ASSERT_TRUE(ReadTDriveTxt(path, &records).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].object, 1131u);
  EXPECT_NEAR(records[0].pos.lon, 116.35022, 1e-9);
  EXPECT_NEAR(records[0].pos.lat, 39.88902, 1e-9);
  // Five minutes apart.
  EXPECT_DOUBLE_EQ(records[1].timestamp - records[0].timestamp, 300.0);
}

TEST(TrajectoryIoTest, TDriveEpochMath) {
  // 1970-01-01 00:00:00 is epoch zero; a day later is 86400.
  std::string path = TempPath("epoch.txt");
  {
    std::ofstream out(path);
    out << "1,1970-01-01 00:00:00,0.0,0.0\n";
    out << "1,1970-01-02 00:00:01,0.0,0.0\n";
    out << "1,2000-03-01 12:00:00,0.0,0.0\n";
  }
  std::vector<GpsRecord> records;
  ASSERT_TRUE(ReadTDriveTxt(path, &records).ok());
  EXPECT_DOUBLE_EQ(records[0].timestamp, 0.0);
  EXPECT_DOUBLE_EQ(records[1].timestamp, 86401.0);
  // 2000-03-01 (leap year Feb had 29 days): verified against `date -u`.
  EXPECT_DOUBLE_EQ(records[2].timestamp, 951912000.0);
}

TEST(TrajectoryIoTest, TDriveRejectsMalformed) {
  std::string path = TempPath("bad_taxi.txt");
  {
    std::ofstream out(path);
    out << "1131,2008-13-45 99:99:99,116.0,39.0\n";
  }
  std::vector<GpsRecord> records;
  EXPECT_EQ(ReadTDriveTxt(path, &records).code(),
            StatusCode::kCorruption);
}

TEST(TrajectoryIoTest, ProjectGpsRecordsUsesFirstAsReference) {
  std::vector<GpsRecord> gps = {
      {1, 0.0, {39.90, 116.40}},
      {1, 60.0, {39.91, 116.40}},
  };
  std::vector<TrajectoryRecord> projected = ProjectGpsRecords(gps);
  ASSERT_EQ(projected.size(), 2u);
  EXPECT_DOUBLE_EQ(projected[0].pos.x, 0.0);
  EXPECT_DOUBLE_EQ(projected[0].pos.y, 0.0);
  EXPECT_NEAR(projected[1].pos.y, 1112.0, 5.0);  // 0.01° lat ≈ 1.1 km
}

TEST(TrajectoryIoTest, StreamToRecordsFlattens) {
  Dataset d = MakeTaxiD1(/*num_snapshots=*/3);
  std::vector<TrajectoryRecord> records =
      StreamToRecords(d.stream, /*seconds_per_snapshot=*/300.0);
  EXPECT_EQ(records.size(), 1500u);
  EXPECT_DOUBLE_EQ(records[0].timestamp, 0.0);
  EXPECT_DOUBLE_EQ(records.back().timestamp, 600.0);
}

TEST(TrajectoryIoTest, GeneratedDatasetRoundTripsThroughCsv) {
  Dataset d = MakeTaxiD1(/*num_snapshots=*/2);
  std::vector<TrajectoryRecord> records = StreamToRecords(d.stream, 300.0);
  std::string path = TempPath("dataset.csv");
  ASSERT_TRUE(WriteRecordCsv(path, records).ok());
  std::vector<TrajectoryRecord> back;
  ASSERT_TRUE(ReadRecordCsv(path, &back).ok());
  ASSERT_EQ(back.size(), records.size());
  for (size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].object, records[i].object);
    EXPECT_NEAR(back[i].pos.x, records[i].pos.x, 1e-3);
  }
}

// ---- the record grammar -------------------------------------------------

TEST(TrajectoryIoTest, RefusesBadRowsWithTheirLineNumber) {
  // Each bad row follows a comment, a header and a good record, so it is
  // on line 4 and no longer eligible as the header. The reader used to
  // parse ids as doubles and cast them (1.5 → 1, -1 → 4294967295,
  // 4294967296 and nan → 0, 1e12 → 3567587328), ignore a fifth field and
  // skip any later row whose id did not parse.
  const char* bad_rows[] = {
      "1.5,0,1,2",         "-1,0,1,2",   "4294967296,0,1,2",
      "nan,0,1,2",         "1e12,0,1,2", "+7,0,1,2",
      "7x,0,1,2",          "2,0,inf,2",  "2,0,1,2,9",
      "object_id,timestamp,x,y",
  };
  for (const char* row : bad_rows) {
    std::string path = TempPath("bad_row.csv");
    WriteFile(path, std::string("# comment\nid,t,x,y\n1,0.0,1.0,2.0\n") +
                        row + "\n3,0.0,1.0,2.0\n");
    std::vector<TrajectoryRecord> records;
    Status s = ReadRecordCsv(path, &records);
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << row;
    EXPECT_NE(s.message().find(path + ":4: "), std::string::npos)
        << row << " -> " << s.ToString();
  }
}

TEST(TrajectoryIoTest, FirstRowIsAHeaderOnlyWithFourColumnNames) {
  // The field count is checked before the header test, and a header has
  // no numeric field: none of these first rows is skipped.
  const char* bad_first_rows[] = {"id,t,x", "garbage", "id,t,x,y,z",
                                  "nan,0,1,2", "id,,x,y"};
  for (const char* row : bad_first_rows) {
    std::string path = TempPath("bad_header.csv");
    WriteFile(path, std::string("# comment\n") + row + "\n1,0.0,1.0,2.0\n");
    std::vector<TrajectoryRecord> records;
    Status s = ReadRecordCsv(path, &records);
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << row;
    EXPECT_NE(s.message().find(path + ":2: "), std::string::npos)
        << row << " -> " << s.ToString();
  }
  std::string path = TempPath("good_header.csv");
  WriteFile(path, " object_id , timestamp,x,y\r\n1,0.0,1.0,2.0\n");
  std::vector<TrajectoryRecord> records;
  ASSERT_TRUE(ReadRecordCsv(path, &records).ok());
  EXPECT_EQ(records.size(), 1u);
}

TEST(TrajectoryIoTest, AcceptsFullIdRangeAndBlanksAroundFields) {
  std::string path = TempPath("id_range.csv");
  WriteFile(path, "0,0,1,2\n 4294967295 , 1.5 ,\t-2.5 ,3e2\t\r\n");
  std::vector<TrajectoryRecord> records;
  ASSERT_TRUE(ReadRecordCsv(path, &records).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].object, 0u);
  EXPECT_EQ(records[1].object, 4294967295u);
  EXPECT_EQ(records[1].timestamp, 1.5);
  EXPECT_EQ(records[1].pos.x, -2.5);
  EXPECT_EQ(records[1].pos.y, 300.0);
}

TEST(TrajectoryIoTest, TDriveRefusesNegativeTaxiId) {
  // The taxi id used to go through a double and a cast: -1 loaded as
  // taxi 4294967295.
  std::string path = TempPath("negative_taxi.txt");
  WriteFile(path,
            "1131,2008-02-02 13:30:44,116.35022,39.88902\n"
            "-1,2008-02-02 13:35:44,116.34542,39.88790\n");
  std::vector<GpsRecord> records;
  Status s = ReadTDriveTxt(path, &records);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find(path + ":2: "), std::string::npos)
      << s.ToString();
}

TEST(TrajectoryIoTest, CsvAndTextIngestShareOneFieldGrammar) {
  // A coordinate loads from a CSV exactly when text INGEST takes it.
  struct Case {
    const char* x;
    bool valid;
  };
  const Case cases[] = {{"1.5", true},  {"-0.25", true}, {"1e3", true},
                        {".5", true},   {"+5", false},   {"0x10", false},
                        {"inf", false}, {"nan", false},  {"1e999", false}};
  for (const Case& c : cases) {
    std::string path = TempPath("grammar.csv");
    WriteFile(path, std::string("1,0,") + c.x + ",2\n");
    std::vector<TrajectoryRecord> records;
    EXPECT_EQ(ReadRecordCsv(path, &records).ok(), c.valid) << c.x;
    Request request;
    EXPECT_EQ(ParseRequest(std::string("INGEST 1 0 ") + c.x + " 2", &request)
                  .ok(),
              c.valid)
        << c.x;
  }
}

TEST(TrajectoryIoTest, MatchesStrtodBitForBit) {
  // 10^5 random doubles, each printed the way the CSV writer prints (%.3f)
  // and the way `feed` round-trips (%.17g), must load to exactly the bits
  // strtod gives for the same text. x spans coordinate magnitudes; y is a
  // random bit pattern, so subnormals and huge exponents occur too.
  Pcg32 rng(20121);
  std::string csv;
  std::vector<std::string> xs, ys;
  char buf[512];
  for (int i = 0; i < 100000; ++i) {
    double x = rng.NextDouble(-1e7, 1e7);
    double y = 0.0;
    do {
      uint64_t bits = (uint64_t{rng.NextU32()} << 32) | rng.NextU32();
      std::memcpy(&y, &bits, sizeof(y));
    } while (!std::isfinite(y));
    std::snprintf(buf, sizeof(buf), "%.3f", x);
    xs.emplace_back(buf);
    std::snprintf(buf, sizeof(buf), "%.17g", y);
    ys.emplace_back(buf);
    csv += std::to_string(i) + ",0," + xs.back() + "," + ys.back() + "\n";
  }
  std::string path = TempPath("strtod.csv");
  WriteFile(path, csv);
  std::vector<TrajectoryRecord> records;
  ASSERT_TRUE(ReadRecordCsv(path, &records).ok());
  ASSERT_EQ(records.size(), xs.size());
  for (size_t i = 0; i < records.size(); ++i) {
    double x = std::strtod(xs[i].c_str(), nullptr);
    double y = std::strtod(ys[i].c_str(), nullptr);
    ASSERT_EQ(std::memcmp(&records[i].pos.x, &x, sizeof(x)), 0) << xs[i];
    ASSERT_EQ(std::memcmp(&records[i].pos.y, &y, sizeof(y)), 0) << ys[i];
  }
}

// ---- block reads ----------------------------------------------------------

TEST(TrajectoryIoTest, RowSplitAcrossBlockEdgeLoads) {
  std::string path = TempPath("edge_row.csv");
  // "5,1.25,2.5,3.75\n" starts 6 bytes before the edge; line 3 is bad, so
  // the line count must also carry across the edge.
  WriteFile(path, PadToBlockEdge(6) + "5,1.25,2.5,3.75\n-3,0,0,0\n");
  std::vector<TrajectoryRecord> records;
  Status s = ReadRecordCsv(path, &records);
  EXPECT_NE(s.message().find(path + ":3: "), std::string::npos)
      << s.ToString();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].object, 5u);
  EXPECT_EQ(records[0].timestamp, 1.25);
  EXPECT_EQ(records[0].pos.x, 2.5);
  EXPECT_EQ(records[0].pos.y, 3.75);
}

TEST(TrajectoryIoTest, CrLfSplitAcrossBlockEdgeLoads) {
  std::string path = TempPath("edge_crlf.csv");
  const std::string row = "7,60,1,2.5\r";  // its '\n' opens block two
  WriteFile(path, PadToBlockEdge(row.size()) + row + "\n8,60,3,4\r\n");
  std::vector<TrajectoryRecord> records;
  ASSERT_TRUE(ReadRecordCsv(path, &records).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].pos.y, 2.5);
  EXPECT_EQ(records[1].object, 8u);
}

TEST(TrajectoryIoTest, LastRowWithoutNewlineLoads) {
  std::string path = TempPath("no_final_newline.csv");
  WriteFile(path, "1,0,1,2\n2,0,3,4");
  std::vector<TrajectoryRecord> records;
  ASSERT_TRUE(ReadRecordCsv(path, &records).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].pos.y, 4.0);

  // The same, with the file ending exactly on the block edge.
  WriteFile(path, PadToBlockEdge(7) + "2,0,3,4");
  records.clear();
  ASSERT_TRUE(ReadRecordCsv(path, &records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].pos.x, 3.0);
}

TEST(TrajectoryIoTest, CommentLongerThanABlockIsSkipped) {
  std::string path = TempPath("long_comment.csv");
  WriteFile(path, "1,0,1,2\n#" + std::string(2 * kReadBlockBytes + 17, 'c') +
                      "\n2,0,3,4\n1.5,0,5,6\n");
  std::vector<TrajectoryRecord> records;
  Status s = ReadRecordCsv(path, &records);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find(path + ":4: "), std::string::npos)
      << s.ToString();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].object, 2u);
}

TEST(TrajectoryIoTest, HardReadErrorIsIoError) {
  // A directory opens but every read fails (EISDIR): that must not pass
  // for an empty file.
  std::vector<TrajectoryRecord> records;
  EXPECT_EQ(ReadRecordCsv(::testing::TempDir(), &records).code(),
            StatusCode::kIoError);
}

TEST(TrajectoryIoTest, ReadsAPipeInOnePass) {
  // A FIFO cannot seek, so the reader must skip the sizing pass and still
  // load everything (`cat f.csv | tcomp discover --csv /dev/stdin`).
  std::string path = TempPath("records.fifo");
  std::remove(path.c_str());
  ASSERT_EQ(mkfifo(path.c_str(), 0600), 0);
  std::thread writer([&path] {
    std::ofstream out(path, std::ios::binary);
    out << "object_id,timestamp,x,y\n";
    for (int i = 0; i < 50000; ++i) out << i << ",1.5,2.5,3.5\n";
  });
  std::vector<TrajectoryRecord> records;
  Status s = ReadRecordCsv(path, &records);
  writer.join();
  std::remove(path.c_str());
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(records.size(), 50000u);
  EXPECT_EQ(records.back().object, 49999u);
  EXPECT_EQ(records.back().pos.y, 3.5);
}

}  // namespace
}  // namespace tcomp
