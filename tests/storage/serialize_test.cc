#include "src/storage/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "tests/testing/temp_path.h"

namespace dmtl {
namespace {

TEST(SerializeTest, RendersParseableFacts) {
  Database db;
  db.Insert("price", {Value::Double(1301.5)},
            Interval::ClosedOpen(Rational(100), Rational(160)));
  db.Insert("tranM", {Value::Symbol("acc1"), Value::Double(20.0)},
            Interval::Point(Rational(105)));
  std::string text = SerializeDatabase(db);
  EXPECT_EQ(text,
            "price(1301.5)@[100, 160) .\n"
            "tranM(acc1, 20.0)@[105, 105] .\n");
}

TEST(SerializeTest, RoundTripsAllValueKinds) {
  Database db;
  db.Insert("v", {Value::Int(7)}, Interval::Point(Rational(1)));
  db.Insert("v", {Value::Double(0.1)}, Interval::Point(Rational(2)));
  db.Insert("v", {Value::Symbol("plain_sym")}, Interval::Point(Rational(3)));
  db.Insert("v", {Value::Symbol("Needs Quoting!")},
            Interval::Point(Rational(4)));
  db.Insert("v", {Value::Bool(true)}, Interval::Point(Rational(5)));
  db.Insert("v", {Value::Bool(false)}, Interval::Point(Rational(6)));
  db.Insert("w", {}, Interval::All());
  db.Insert("x", {Value::Int(-3)},
            Interval::OpenClosed(Rational(-5, 2), Rational(7)));

  auto parsed = Parser::ParseDatabase(SerializeDatabase(db));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(SerializeDatabase(*parsed), SerializeDatabase(db));
  // Exact double round trip.
  EXPECT_TRUE(parsed->Holds("v", {Value::Double(0.1)}, Rational(2)));
  EXPECT_TRUE(parsed->Holds("v", {Value::Bool(true)}, Rational(5)));
  EXPECT_TRUE(
      parsed->Holds("v", {Value::Symbol("Needs Quoting!")}, Rational(4)));
  EXPECT_TRUE(parsed->Holds("w", {}, Rational(1'000'000)));
}

TEST(SerializeTest, DeterministicOrdering) {
  Database a;
  a.Insert("p", {Value::Int(2)}, Interval::Point(Rational(1)));
  a.Insert("p", {Value::Int(1)}, Interval::Point(Rational(1)));
  Database b;
  b.Insert("p", {Value::Int(1)}, Interval::Point(Rational(1)));
  b.Insert("p", {Value::Int(2)}, Interval::Point(Rational(1)));
  EXPECT_EQ(SerializeDatabase(a), SerializeDatabase(b));
}

TEST(SerializeTest, FileRoundTrip) {
  Database db;
  db.Insert("margin", {Value::Symbol("acc"), Value::Double(97.5)},
            Interval::Closed(Rational(1), Rational(9)));
  std::string path = TestTempPath("dmtl_serialize").string() + ".dmtl";
  ASSERT_TRUE(WriteDatabaseFile(db, path).ok());
  auto loaded = ReadDatabaseFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(SerializeDatabase(*loaded), SerializeDatabase(db));
  std::remove(path.c_str());
}

TEST(SerializeTest, ReadSourceFileReportsErrors) {
  EXPECT_FALSE(ReadDatabaseFile("/nonexistent/nope.dmtl").ok());
  std::string path = TestTempPath("dmtl_bad").string() + ".dmtl";
  {
    std::ofstream f(path);
    f << "p(a)@5";  // missing dot
  }
  auto result = ReadSourceFile(path);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(path), std::string::npos);
  std::remove(path.c_str());
}

TEST(SerializeTest, ProgramArtifactFileParses) {
  // The shipped programs/eth_perp.dmtl must stay parseable; the content
  // equality with the builder is covered in risk_rules/eth_perp tests.
  auto source = ReadSourceFile("programs/eth_perp.dmtl");
  if (!source.ok()) {
    GTEST_SKIP() << "artifact not found (test run outside repo root)";
  }
  EXPECT_GE(source->program.size(), 40u);
}

}  // namespace
}  // namespace dmtl
