// Axis-aligned rectangles over the load-matrix index space.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

namespace rectpart {

/// Half-open axis-aligned rectangle: rows [x0, x1) x columns [y0, y1).
///
/// The paper writes rectangles with inclusive bounds (x1,x2,y1,y2); we use the
/// half-open convention throughout the implementation because it removes the
/// off-by-one corrections from every cut-based algorithm.  A rectangle with
/// x0 == x1 or y0 == y1 is *empty*: it is a legal allocation for a processor
/// that receives no work (this occurs when m exceeds the number of non-empty
/// stripes a class can produce).
struct Rect {
  int x0 = 0;
  int x1 = 0;
  int y0 = 0;
  int y1 = 0;

  [[nodiscard]] int width() const { return x1 - x0; }    ///< extent in rows
  [[nodiscard]] int height() const { return y1 - y0; }   ///< extent in columns
  [[nodiscard]] std::int64_t area() const {
    return static_cast<std::int64_t>(width()) * height();
  }
  [[nodiscard]] bool empty() const { return x0 >= x1 || y0 >= y1; }

  /// True when the two rectangles share at least one cell.
  [[nodiscard]] bool intersects(const Rect& o) const {
    if (empty() || o.empty()) return false;
    return x0 < o.x1 && o.x0 < x1 && y0 < o.y1 && o.y0 < y1;
  }

  /// True when `o` lies entirely within this rectangle.
  [[nodiscard]] bool contains(const Rect& o) const {
    if (o.empty()) return true;
    return x0 <= o.x0 && o.x1 <= x1 && y0 <= o.y0 && o.y1 <= y1;
  }

  /// True when the cell (x, y) lies inside the rectangle.
  [[nodiscard]] bool contains(int x, int y) const {
    return x0 <= x && x < x1 && y0 <= y && y < y1;
  }

  /// Half-perimeter in cells; used by the communication-volume metrics.
  /// Widened before the addition so coordinate spans near INT_MAX cannot
  /// overflow the intermediate (the sum of two int extents does not fit in
  /// int in general, even though each extent does).
  [[nodiscard]] std::int64_t half_perimeter() const {
    return empty() ? 0
                   : static_cast<std::int64_t>(width()) +
                         static_cast<std::int64_t>(height());
  }

  friend bool operator==(const Rect&, const Rect&) = default;

  [[nodiscard]] std::string to_string() const {
    // Appends to one string: `"[" + std::to_string(...)` trips GCC 12's
    // -Wrestrict false positive wherever this inlines.
    std::string s = "[";
    s += std::to_string(x0) + "," + std::to_string(x1) + ")x[";
    s += std::to_string(y0) + "," + std::to_string(y1) + ")";
    return s;
  }
};

inline std::ostream& operator<<(std::ostream& os, const Rect& r) {
  return os << r.to_string();
}

}  // namespace rectpart
