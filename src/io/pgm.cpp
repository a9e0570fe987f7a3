#include "io/pgm.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <vector>

namespace rectpart {

namespace {

std::vector<unsigned char> intensities(const LoadMatrix& a, bool log_scale) {
  std::int64_t max_v = 0;
  for (const std::int64_t v : a) max_v = std::max(max_v, v);
  std::vector<unsigned char> pix(a.size(), 0);
  if (max_v == 0) return pix;
  const double denom =
      log_scale ? std::log1p(static_cast<double>(max_v)) : double(max_v);
  std::size_t i = 0;
  for (const std::int64_t v : a) {
    const double t = log_scale
                         ? std::log1p(static_cast<double>(v)) / denom
                         : static_cast<double>(v) / denom;
    pix[i++] = static_cast<unsigned char>(std::lround(255.0 * t));
  }
  return pix;
}

void write_pgm(const std::vector<unsigned char>& pix, int rows, int cols,
               const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  out << "P5\n" << cols << ' ' << rows << "\n255\n";
  out.write(reinterpret_cast<const char*>(pix.data()),
            static_cast<std::streamsize>(pix.size()));
  if (!out) throw std::runtime_error("write error: " + path);
}

}  // namespace

void save_pgm(const LoadMatrix& a, const std::string& path, bool log_scale) {
  write_pgm(intensities(a, log_scale), a.rows(), a.cols(), path);
}

LoadMatrix load_pgm(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  auto fail_at = [&path](const std::string& what, std::int64_t off) {
    throw std::runtime_error(what + ": " + path + " (byte offset " +
                             std::to_string(off) + ")");
  };
  std::string magic;
  if (!(in >> magic) || magic != "P5")
    throw std::runtime_error("bad magic (not a binary P5 PGM): " + path);
  // Header tokens may be separated by whitespace or '#' comment lines.
  auto next_int = [&](const char* what) -> long long {
    char c;
    while (in >> std::ws && in.peek() == '#')
      while (in.get(c) && c != '\n') {
      }
    long long v = 0;
    if (!(in >> v) || v < 0)
      fail_at(std::string("malformed PGM header (bad ") + what + ")",
              static_cast<std::int64_t>(in.tellg()));
    return v;
  };
  const long long cols = next_int("width");
  const long long rows = next_int("height");
  const long long maxval = next_int("maxval");
  if (maxval < 1 || maxval > 255)
    throw std::runtime_error(
        "unsupported PGM maxval " + std::to_string(maxval) +
        " (only 8-bit graymaps are supported): " + path);
  // Exactly one whitespace byte separates the header from the raster.
  char sep;
  if (!in.get(sep) || (sep != '\n' && sep != ' ' && sep != '\t' &&
                       sep != '\r'))
    fail_at("malformed PGM header (missing raster separator)",
            static_cast<std::int64_t>(in.tellg()));
  const std::int64_t body_off = static_cast<std::int64_t>(in.tellg());
  // checked_extent rejects rows*cols products that overflow; a hostile
  // header therefore fails typed instead of allocating near SIZE_MAX.
  const std::size_t cells = checked_extent({rows, cols});
  // A header the rest of the file cannot hold fails before the allocation
  // it sizes.
  in.seekg(0, std::ios::end);
  const std::int64_t have =
      static_cast<std::int64_t>(in.tellg()) - body_off;
  in.seekg(body_off);
  if (static_cast<std::uint64_t>(have) < cells)
    fail_at("truncated PGM raster (expected " + std::to_string(cells) +
                " bytes, file holds " + std::to_string(have) + ")",
            body_off);
  std::vector<unsigned char> pix(cells);
  in.read(reinterpret_cast<char*>(pix.data()),
          static_cast<std::streamsize>(cells));
  if (static_cast<std::size_t>(in.gcount()) != cells)
    fail_at("truncated PGM raster (expected " + std::to_string(cells) +
                " bytes, got " + std::to_string(in.gcount()) + ")",
            body_off + static_cast<std::int64_t>(in.gcount()));
  LoadMatrix a(static_cast<int>(rows), static_cast<int>(cols));
  std::size_t i = 0;
  for (std::int64_t& v : a) v = static_cast<std::int64_t>(pix[i++]);
  return a;
}

void save_pgm_with_partition(const LoadMatrix& a, const Partition& p,
                             const std::string& path, bool log_scale) {
  std::vector<unsigned char> pix = intensities(a, log_scale);
  const int n1 = a.rows(), n2 = a.cols();
  auto darken = [&](int x, int y) {
    pix[static_cast<std::size_t>(x) * n2 + y] = 0;
  };
  for (const Rect& r : p.rects) {
    if (r.empty()) continue;
    for (int x = r.x0; x < r.x1; ++x) {
      darken(x, r.y0);
      darken(x, r.y1 - 1);
    }
    for (int y = r.y0; y < r.y1; ++y) {
      darken(r.x0, y);
      darken(r.x1 - 1, y);
    }
  }
  write_pgm(pix, n1, n2, path);
}

}  // namespace rectpart
