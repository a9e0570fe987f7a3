#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <utility>

#include "io/matrix_io.hpp"
#include "io/partition_io.hpp"
#include "io/pgm.hpp"
#include "testing_util.hpp"

namespace rectpart {
namespace {

using testing::random_matrix;

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("rectpart_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(IoTest, TextRoundTrip) {
  const LoadMatrix a = random_matrix(9, 7, 0, 1000, 1);
  save_matrix_text(a, path("m.txt"));
  EXPECT_EQ(load_matrix_text(path("m.txt")), a);
}

TEST_F(IoTest, BinaryRoundTrip) {
  const LoadMatrix a = random_matrix(13, 5, 0, 1'000'000'000'000LL, 2);
  save_matrix_binary(a, path("m.bin"));
  EXPECT_EQ(load_matrix_binary(path("m.bin")), a);
}

TEST_F(IoTest, EmptyMatrixRoundTrips) {
  const LoadMatrix a(0, 0);
  save_matrix_text(a, path("e.txt"));
  save_matrix_binary(a, path("e.bin"));
  EXPECT_EQ(load_matrix_text(path("e.txt")), a);
  EXPECT_EQ(load_matrix_binary(path("e.bin")), a);
}

TEST_F(IoTest, MissingFileThrows) {
  EXPECT_THROW((void)load_matrix_text(path("absent.txt")),
               std::runtime_error);
  EXPECT_THROW((void)load_matrix_binary(path("absent.bin")),
               std::runtime_error);
}

TEST_F(IoTest, TruncatedTextThrows) {
  std::ofstream(path("bad.txt")) << "3 3\n1 2 3\n4 5\n";
  EXPECT_THROW((void)load_matrix_text(path("bad.txt")), std::runtime_error);
}

TEST_F(IoTest, TruncatedTextNamesCellAndFile) {
  std::ofstream(path("bad.txt")) << "3 3\n1 2 3\n4 5\n";
  try {
    (void)load_matrix_text(path("bad.txt"));
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("cell (1, 2)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("bad.txt"), std::string::npos) << msg;
  }
}

TEST_F(IoTest, BadMagicThrows) {
  std::ofstream(path("bad.bin"), std::ios::binary) << "NOPE123456";
  EXPECT_THROW((void)load_matrix_binary(path("bad.bin")), std::runtime_error);
}

TEST_F(IoTest, TruncatedBinaryHeaderThrows) {
  std::ofstream(path("hdr.bin"), std::ios::binary) << "RPM1\x03";
  EXPECT_THROW((void)load_matrix_binary(path("hdr.bin")), std::runtime_error);
}

TEST_F(IoTest, TruncatedBinaryBodyNamesOffset) {
  const LoadMatrix a = random_matrix(4, 4, 0, 100, 7);
  save_matrix_binary(a, path("t.bin"));
  std::filesystem::resize_file(dir_ / "t.bin", 12 + 5 * sizeof(std::int64_t));
  try {
    (void)load_matrix_binary(path("t.bin"));
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("truncated matrix body"), std::string::npos) << msg;
    EXPECT_NE(msg.find("byte offset"), std::string::npos) << msg;
    EXPECT_NE(msg.find("t.bin"), std::string::npos) << msg;
  }
}

TEST_F(IoTest, NegativeBinaryDimensionThrows) {
  std::ofstream out(path("neg.bin"), std::ios::binary);
  out << "RPM1";
  const std::int32_t dims[2] = {-4, 4};
  out.write(reinterpret_cast<const char*>(dims), sizeof(dims));
  out.close();
  EXPECT_THROW((void)load_matrix_binary(path("neg.bin")), std::runtime_error);
}

TEST_F(IoTest, HostileBinaryDimensionsFailBeforeAllocating) {
  // A header claiming INT_MAX x INT_MAX cells must be rejected by the
  // file-size check (as truncated), not multiplied into an overflowed
  // byte count or handed to the allocator.
  std::ofstream out(path("huge.bin"), std::ios::binary);
  out << "RPM1";
  const std::int32_t dims[2] = {std::numeric_limits<std::int32_t>::max(),
                                std::numeric_limits<std::int32_t>::max()};
  out.write(reinterpret_cast<const char*>(dims), sizeof(dims));
  out.close();
  EXPECT_THROW((void)load_matrix_binary(path("huge.bin")),
               std::runtime_error);
}

TEST_F(IoTest, Matrix3BinaryRoundTripAndTruncation) {
  LoadMatrix3 a(2, 3, 2, 0);
  std::int64_t v = 1;
  for (auto& c : a) c = v++;
  save_matrix3_binary(a, path("c.bin"));
  EXPECT_EQ(load_matrix3_binary(path("c.bin")), a);
  std::filesystem::resize_file(dir_ / "c.bin", 16 + 3 * sizeof(std::int64_t));
  EXPECT_THROW((void)load_matrix3_binary(path("c.bin")), std::runtime_error);
}

TEST_F(IoTest, PartitionCsvRoundTrip) {
  Partition p;
  p.rects = {Rect{0, 2, 0, 4}, Rect{2, 4, 0, 4}, Rect{}};
  save_partition_csv(p, path("p.csv"));
  const Partition q = load_partition_csv(path("p.csv"));
  ASSERT_EQ(q.m(), 3);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(q.rects[i], p.rects[i]);
}

TEST_F(IoTest, PartitionCsvBadHeaderThrows) {
  std::ofstream(path("bad.csv")) << "wrong,header\n";
  EXPECT_THROW((void)load_partition_csv(path("bad.csv")), std::runtime_error);
}

TEST_F(IoTest, PgmHasCorrectHeaderAndSize) {
  const LoadMatrix a = random_matrix(10, 20, 0, 255, 3);
  save_pgm(a, path("m.pgm"));
  std::ifstream in(path("m.pgm"), std::ios::binary);
  std::string magic;
  int w = 0, h = 0, maxv = 0;
  in >> magic >> w >> h >> maxv;
  EXPECT_EQ(magic, "P5");
  EXPECT_EQ(w, 20);
  EXPECT_EQ(h, 10);
  EXPECT_EQ(maxv, 255);
  in.get();  // single whitespace after header
  std::string body((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(body.size(), 200u);
}

TEST_F(IoTest, PgmAllZerosIsBlack) {
  const LoadMatrix a(4, 4, 0);
  save_pgm(a, path("z.pgm"));
  std::ifstream in(path("z.pgm"), std::ios::binary);
  std::string line;
  std::getline(in, line);  // P5
  std::getline(in, line);  // dims
  std::getline(in, line);  // maxval
  char c;
  while (in.get(c)) EXPECT_EQ(c, '\0');
}

TEST_F(IoTest, PgmWithPartitionBurnsBoundaries) {
  const LoadMatrix a = random_matrix(8, 8, 200, 255, 4);
  Partition p;
  p.rects = {Rect{0, 8, 0, 4}, Rect{0, 8, 4, 8}};
  save_pgm_with_partition(a, p, path("b.pgm"));
  std::ifstream in(path("b.pgm"), std::ios::binary);
  std::string line;
  std::getline(in, line);
  std::getline(in, line);
  std::getline(in, line);
  std::vector<unsigned char> pix((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
  ASSERT_EQ(pix.size(), 64u);
  // The boundary columns (y = 3, 4) of every row must be black.
  for (int x = 0; x < 8; ++x) {
    EXPECT_EQ(pix[x * 8 + 3], 0);
    EXPECT_EQ(pix[x * 8 + 4], 0);
  }
}

TEST_F(IoTest, PgmRoundTripsThroughLoader) {
  LoadMatrix a = random_matrix(6, 9, 0, 255, 11);
  a(0, 0) = 255;  // pin the max so the linear intensity map is identity
  a(5, 8) = 0;
  save_pgm(a, path("rt.pgm"));
  const LoadMatrix b = load_pgm(path("rt.pgm"));
  EXPECT_EQ(b, a);
}

TEST_F(IoTest, PgmLoaderRejectsBadInput) {
  // Wrong magic.
  std::ofstream(path("p2.pgm"), std::ios::binary) << "P2\n2 2\n255\n0 0 0 0\n";
  EXPECT_THROW((void)load_pgm(path("p2.pgm")), std::runtime_error);
  // 16-bit maxval is unsupported.
  std::ofstream(path("deep.pgm"), std::ios::binary) << "P5\n2 2\n65535\n";
  EXPECT_THROW((void)load_pgm(path("deep.pgm")), std::runtime_error);
  // Truncated raster: header promises 4 bytes, file holds 2.
  std::ofstream(path("short.pgm"), std::ios::binary) << "P5\n2 2\n255\nab";
  try {
    (void)load_pgm(path("short.pgm"));
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("truncated PGM raster"), std::string::npos) << msg;
    EXPECT_NE(msg.find("byte offset"), std::string::npos) << msg;
  }
}

// A header the rest of the file cannot hold is a typed runtime_error raised
// before the allocation it would size (here 80 GB and 40 GB), as the binary
// loaders already do.
TEST_F(IoTest, DenseTextHeaderPastTheFileFailsBeforeAllocating) {
  std::ofstream(path("huge.txt")) << "100000 100000\n1 2 3\n";
  try {
    (void)load_matrix_text(path("huge.txt"));
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("truncated matrix body"), std::string::npos) << msg;
    EXPECT_NE(msg.find("100000x100000"), std::string::npos) << msg;
  }
}

TEST_F(IoTest, PgmHeaderPastTheFileFailsBeforeAllocating) {
  std::ofstream(path("huge.pgm"), std::ios::binary)
      << "P5\n200000 200000\n255\nabcd";
  try {
    (void)load_pgm(path("huge.pgm"));
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("truncated PGM raster"), std::string::npos) << msg;
    EXPECT_NE(msg.find("file holds 4"), std::string::npos) << msg;
  }
}

// 1-based COO indices are checked before they narrow to int32: row
// 4294967297 would otherwise wrap to row 1 of a 4x4 instance.
TEST_F(IoTest, CooTextRejectsAnIndexOutsideItsDimension) {
  const std::pair<const char*, const char*> cases[] = {
      {"4 4 2\n1 1 5\n4294967297 2 3\n", "COO entry 1: row index 4294967297 "
                                          "outside [1, 4]"},
      {"4 4 1\n2 0 3\n", "COO entry 0: column index 0 outside [1, 4]"},
      {"4 4 1\n2 5 3\n", "COO entry 0: column index 5 outside [1, 4]"}};
  for (const auto& [text, want] : cases) {
    std::ofstream(path("bad.mtx")) << text;
    try {
      (void)load_coo_text(path("bad.mtx"));
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
    }
  }
}

// The header's nnz reserves no more entries than the file can hold: a
// trillion-entry header on a one-entry file fails as truncated, typed.
TEST_F(IoTest, CooTextHeaderPastTheFileFailsAsTruncated) {
  std::ofstream(path("huge.mtx")) << "4 4 1000000000000\n1 1 5\n";
  try {
    (void)load_coo_text(path("huge.mtx"));
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("COO body at entry 1 of"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(IoTest, PgmLoaderSkipsComments) {
  std::ofstream(path("cmt.pgm"), std::ios::binary)
      << "P5\n# heat map\n3 2\n255\n"
      << std::string("\x01\x02\x03\x04\x05\x06", 6);
  const LoadMatrix a = load_pgm(path("cmt.pgm"));
  ASSERT_EQ(a.rows(), 2);
  ASSERT_EQ(a.cols(), 3);
  EXPECT_EQ(a(0, 0), 1);
  EXPECT_EQ(a(1, 2), 6);
}

TEST_F(IoTest, LargeValuesSurviveBinaryRoundTrip) {
  // A single INT64_MAX cell is the largest total load the loaders accept.
  LoadMatrix a(2, 2, 0);
  a(0, 0) = std::numeric_limits<std::int64_t>::max();
  save_matrix_binary(a, path("big.bin"));
  EXPECT_EQ(load_matrix_binary(path("big.bin")), a);
}

/// The what() of the std::invalid_argument `load` throws ("" if none).
template <typename Load>
std::string rejection(Load load) {
  try {
    (void)load();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST_F(IoTest, DenseLoadersRejectANegativeCellNamingIt) {
  std::ofstream(path("neg.txt")) << "2 3\n1 2 3\n4 -5 6\n";
  EXPECT_EQ(rejection([&] { return load_matrix_text(path("neg.txt")); }),
            "cell (1, 1) has negative load -5");

  LoadMatrix a(3, 4, 2);
  a(2, 1) = -7;
  a(2, 3) = -1;  // only the first bad cell is named
  save_matrix_binary(a, path("neg.bin"));
  EXPECT_EQ(rejection([&] { return load_matrix_binary(path("neg.bin")); }),
            "cell (2, 1) has negative load -7");

  LoadMatrix3 c(2, 3, 2, 1);
  c(1, 2, 0) = -3;
  save_matrix3_binary(c, path("neg3.bin"));
  EXPECT_EQ(rejection([&] { return load_matrix3_binary(path("neg3.bin")); }),
            "cell (1, 2, 0) has negative load -3");
}

TEST_F(IoTest, DenseLoadersRejectATotalPastInt64) {
  // Every cell is a valid int64 but the running total is not.
  constexpr std::int64_t kHalf = std::numeric_limits<std::int64_t>::max() / 2;
  std::ofstream(path("big.txt"))
      << "1 3\n" << kHalf << ' ' << kHalf << ' ' << 2 << '\n';
  EXPECT_EQ(rejection([&] { return load_matrix_text(path("big.txt")); }),
            "cell (0, 2) load 2 takes the total load past 2^63-1");

  LoadMatrix a(2, 2, 0);
  a(0, 1) = kHalf + 1;
  a(1, 0) = kHalf + 1;
  save_matrix_binary(a, path("big.bin"));
  EXPECT_EQ(rejection([&] { return load_matrix_binary(path("big.bin")); }),
            "cell (1, 0) load " + std::to_string(kHalf + 1) +
                " takes the total load past 2^63-1");

  LoadMatrix3 c(1, 1, 2, kHalf + 1);
  save_matrix3_binary(c, path("big3.bin"));
  EXPECT_EQ(rejection([&] { return load_matrix3_binary(path("big3.bin")); }),
            "cell (0, 0, 1) load " + std::to_string(kHalf + 1) +
                " takes the total load past 2^63-1");
}

}  // namespace
}  // namespace rectpart
