#include "io/matrix_io.hpp"

#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace rectpart {

namespace {

[[noreturn]] void io_fail(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + ": " + path);
}

/// Read failures mid-body must name the file *and* where the stream died:
/// untrusted or truncated inputs (service payloads, interrupted copies)
/// otherwise yield silently short matrices.
[[noreturn]] void io_fail_at(const std::string& what, const std::string& path,
                             std::int64_t offset) {
  throw std::runtime_error(what + ": " + path + " (byte offset " +
                           std::to_string(offset) + ")");
}

/// Bytes remaining from the current read position to end-of-file.  Checked
/// *before* allocating a body whose size comes from an untrusted header, so
/// a corrupt dimension pair fails as "truncated" instead of attempting a
/// multi-gigabyte allocation.
std::int64_t bytes_remaining(std::ifstream& in) {
  const std::streampos cur = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(cur);
  return static_cast<std::int64_t>(end - cur);
}

/// True when an int64 body of prod(dims) cells fits in `have` bytes; the
/// product is checked by division so hostile headers (2^31 x 2^31) cannot
/// overflow the byte count into a passing value.  On success *need holds the
/// exact body size in bytes.
bool body_fits(std::initializer_list<std::int64_t> dims, std::int64_t have,
               std::int64_t* need) {
  const std::int64_t cap =
      have / static_cast<std::int64_t>(sizeof(std::int64_t));
  std::int64_t cells = 1;
  for (const std::int64_t d : dims) {
    if (d == 0) {
      cells = 0;
      break;
    }
    if (cells > cap / d) return false;
    cells *= d;
  }
  *need = cells * static_cast<std::int64_t>(sizeof(std::int64_t));
  return true;
}

constexpr char kMagic[4] = {'R', 'P', 'M', '1'};
constexpr char kMagic3[4] = {'R', 'P', 'M', '3'};
constexpr char kMagicCoo[4] = {'R', 'P', 'C', '1'};

}  // namespace

void save_matrix_text(const LoadMatrix& a, const std::string& path) {
  std::ofstream out(path);
  if (!out) io_fail("cannot open for writing", path);
  out << a.rows() << ' ' << a.cols() << '\n';
  for (int x = 0; x < a.rows(); ++x) {
    for (int y = 0; y < a.cols(); ++y) {
      if (y) out << ' ';
      out << a(x, y);
    }
    out << '\n';
  }
  if (!out) io_fail("write error", path);
}

LoadMatrix load_matrix_text(const std::string& path) {
  std::ifstream in(path);
  if (!in) io_fail("cannot open for reading", path);
  int n1 = 0, n2 = 0;
  if (!(in >> n1 >> n2) || n1 < 0 || n2 < 0)
    io_fail("malformed header (expected 'n1 n2', both >= 0)", path);
  LoadMatrix a(n1, n2);
  for (int x = 0; x < n1; ++x) {
    for (int y = 0; y < n2; ++y) {
      if (!(in >> a(x, y))) {
        const std::int64_t off =
            in.eof() ? -1 : static_cast<std::int64_t>(in.tellg());
        io_fail_at("truncated or malformed matrix body at cell (" +
                       std::to_string(x) + ", " + std::to_string(y) + ") of " +
                       std::to_string(n1) + "x" + std::to_string(n2),
                   path, off);
      }
    }
  }
  check_dense_loads(a.data(), {n1, n2});
  return a;
}

void save_matrix_binary(const LoadMatrix& a, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) io_fail("cannot open for writing", path);
  out.write(kMagic, sizeof(kMagic));
  const std::int32_t dims[2] = {a.rows(), a.cols()};
  out.write(reinterpret_cast<const char*>(dims), sizeof(dims));
  out.write(reinterpret_cast<const char*>(a.data()),
            static_cast<std::streamsize>(a.size() * sizeof(std::int64_t)));
  if (!out) io_fail("write error", path);
}

LoadMatrix load_matrix_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) io_fail("cannot open for reading", path);
  char magic[4];
  in.read(magic, sizeof(magic));
  if (in.gcount() != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    io_fail("bad magic (not an RPM1 file)", path);
  std::int32_t dims[2];
  in.read(reinterpret_cast<char*>(dims), sizeof(dims));
  if (in.gcount() != sizeof(dims)) io_fail_at("truncated header", path, 4);
  if (dims[0] < 0 || dims[1] < 0)
    io_fail("malformed header (negative dimension)", path);
  // Validate the declared body against the actual file size before the
  // (header-controlled) allocation.
  const std::int64_t have = bytes_remaining(in);
  std::int64_t need = 0;
  if (!body_fits({dims[0], dims[1]}, have, &need))
    io_fail_at("truncated matrix body (header declares " +
                   std::to_string(dims[0]) + "x" + std::to_string(dims[1]) +
                   " cells, file holds " + std::to_string(have) + " bytes)",
               path, 12);
  (void)need;
  LoadMatrix a(dims[0], dims[1]);
  in.read(reinterpret_cast<char*>(a.data()),
          static_cast<std::streamsize>(a.size() * sizeof(std::int64_t)));
  if (static_cast<std::size_t>(in.gcount()) !=
      a.size() * sizeof(std::int64_t))
    io_fail_at("read error in matrix body", path,
               12 + static_cast<std::int64_t>(in.gcount()));
  check_dense_loads(a.data(), {dims[0], dims[1]});
  return a;
}

void save_coo_text(const CooInstance& coo, const std::string& path) {
  std::ofstream out(path);
  if (!out) io_fail("cannot open for writing", path);
  out << "%%MatrixMarket matrix coordinate integer general\n";
  out << coo.n1 << ' ' << coo.n2 << ' ' << coo.entries.size() << '\n';
  for (const CooEntry& e : coo.entries)
    out << e.r + 1 << ' ' << e.c + 1 << ' ' << e.v << '\n';
  if (!out) io_fail("write error", path);
}

CooInstance load_coo_text(const std::string& path) {
  std::ifstream in(path);
  if (!in) io_fail("cannot open for reading", path);
  // Skip '%' comment lines (MatrixMarket headers are comments too).
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::int64_t n1 = 0, n2 = 0, nnz = 0;
  {
    std::istringstream header(line);
    if (!(header >> n1 >> n2 >> nnz) || n1 < 0 || n2 < 0 || nnz < 0)
      io_fail("malformed COO size line (expected 'n1 n2 nnz', all >= 0)",
              path);
  }
  if (n1 > std::numeric_limits<std::int32_t>::max() ||
      n2 > std::numeric_limits<std::int32_t>::max())
    io_fail("COO dimensions exceed int32", path);
  CooInstance coo;
  coo.n1 = static_cast<int>(n1);
  coo.n2 = static_cast<int>(n2);
  coo.entries.reserve(static_cast<std::size_t>(nnz));
  for (std::int64_t k = 0; k < nnz; ++k) {
    std::int64_t r = 0, c = 0, v = 0;
    if (!(in >> r >> c >> v))
      io_fail("truncated or malformed COO body at entry " + std::to_string(k) +
                  " of " + std::to_string(nnz),
              path);
    // 1-based on disk; range errors surface in from_coo with the 0-based
    // coordinates these produce.
    coo.entries.push_back(CooEntry{static_cast<std::int32_t>(r - 1),
                                   static_cast<std::int32_t>(c - 1), v});
  }
  return coo;
}

void save_coo_binary(const CooInstance& coo, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) io_fail("cannot open for writing", path);
  out.write(kMagicCoo, sizeof(kMagicCoo));
  const std::int32_t dims[2] = {coo.n1, coo.n2};
  out.write(reinterpret_cast<const char*>(dims), sizeof(dims));
  const std::int64_t nnz = static_cast<std::int64_t>(coo.entries.size());
  out.write(reinterpret_cast<const char*>(&nnz), sizeof(nnz));
  out.write(reinterpret_cast<const char*>(coo.entries.data()),
            static_cast<std::streamsize>(coo.entries.size() *
                                         sizeof(CooEntry)));
  if (!out) io_fail("write error", path);
}

CooInstance load_coo_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) io_fail("cannot open for reading", path);
  char magic[4];
  in.read(magic, sizeof(magic));
  if (in.gcount() != sizeof(magic) ||
      std::memcmp(magic, kMagicCoo, sizeof(kMagicCoo)) != 0)
    io_fail("bad magic (not an RPC1 file)", path);
  std::int32_t dims[2];
  in.read(reinterpret_cast<char*>(dims), sizeof(dims));
  if (in.gcount() != sizeof(dims)) io_fail_at("truncated header", path, 4);
  std::int64_t nnz = 0;
  in.read(reinterpret_cast<char*>(&nnz), sizeof(nnz));
  if (in.gcount() != sizeof(nnz)) io_fail_at("truncated header", path, 12);
  if (dims[0] < 0 || dims[1] < 0 || nnz < 0)
    io_fail("malformed header (negative dimension or nnz)", path);
  const std::int64_t have = bytes_remaining(in);
  const std::int64_t entry_size = static_cast<std::int64_t>(sizeof(CooEntry));
  if (nnz > have / entry_size)
    io_fail_at("truncated COO body (header declares " + std::to_string(nnz) +
                   " entries, file holds " + std::to_string(have) + " bytes)",
               path, 20);
  CooInstance coo;
  coo.n1 = dims[0];
  coo.n2 = dims[1];
  coo.entries.resize(static_cast<std::size_t>(nnz));
  in.read(reinterpret_cast<char*>(coo.entries.data()),
          static_cast<std::streamsize>(coo.entries.size() * sizeof(CooEntry)));
  if (static_cast<std::size_t>(in.gcount()) !=
      coo.entries.size() * sizeof(CooEntry))
    io_fail_at("read error in COO body", path,
               20 + static_cast<std::int64_t>(in.gcount()));
  return coo;
}

}  // namespace rectpart

namespace rectpart {

void save_matrix3_binary(const LoadMatrix3& a, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) io_fail("cannot open for writing", path);
  out.write(kMagic3, sizeof(kMagic3));
  const std::int32_t dims[3] = {a.dim1(), a.dim2(), a.dim3()};
  out.write(reinterpret_cast<const char*>(dims), sizeof(dims));
  for (const std::int64_t v : a)
    out.write(reinterpret_cast<const char*>(&v), sizeof(v));
  if (!out) io_fail("write error", path);
}

LoadMatrix3 load_matrix3_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) io_fail("cannot open for reading", path);
  char magic[4];
  in.read(magic, sizeof(magic));
  if (in.gcount() != sizeof(magic) ||
      std::memcmp(magic, kMagic3, sizeof(kMagic3)) != 0)
    io_fail("bad magic (not an RPM3 file)", path);
  std::int32_t dims[3];
  in.read(reinterpret_cast<char*>(dims), sizeof(dims));
  if (in.gcount() != sizeof(dims)) io_fail_at("truncated header", path, 4);
  if (dims[0] < 0 || dims[1] < 0 || dims[2] < 0)
    io_fail("malformed header (negative dimension)", path);
  const std::int64_t have = bytes_remaining(in);
  std::int64_t need = 0;
  if (!body_fits({dims[0], dims[1], dims[2]}, have, &need))
    io_fail_at("truncated matrix body (header declares " +
                   std::to_string(dims[0]) + "x" + std::to_string(dims[1]) +
                   "x" + std::to_string(dims[2]) + " cells, file holds " +
                   std::to_string(have) + " bytes)",
               path, 16);
  (void)need;
  LoadMatrix3 a(dims[0], dims[1], dims[2]);
  std::int64_t off = 16;
  for (std::int64_t& v : a) {
    in.read(reinterpret_cast<char*>(&v), sizeof(v));
    if (in.gcount() != sizeof(v))
      io_fail_at("read error in matrix body", path, off);
    off += static_cast<std::int64_t>(sizeof(v));
  }
  check_dense_loads(a.data(), {dims[0], dims[1], dims[2]});
  return a;
}

}  // namespace rectpart
