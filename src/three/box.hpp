// Axis-aligned boxes (rectangular volumes) over the 3-D index space.
#pragma once

#include <cstdint>
#include <string>

namespace rectpart {

/// Half-open box [x0,x1) x [y0,y1) x [z0,z1); the 3-D analogue of Rect.
struct Box {
  int x0 = 0, x1 = 0;
  int y0 = 0, y1 = 0;
  int z0 = 0, z1 = 0;

  [[nodiscard]] int dx() const { return x1 - x0; }
  [[nodiscard]] int dy() const { return y1 - y0; }
  [[nodiscard]] int dz() const { return z1 - z0; }
  [[nodiscard]] std::int64_t volume() const {
    return static_cast<std::int64_t>(dx()) * dy() * dz();
  }
  [[nodiscard]] bool empty() const {
    return x0 >= x1 || y0 >= y1 || z0 >= z1;
  }

  [[nodiscard]] bool intersects(const Box& o) const {
    if (empty() || o.empty()) return false;
    return x0 < o.x1 && o.x0 < x1 && y0 < o.y1 && o.y0 < y1 && z0 < o.z1 &&
           o.z0 < z1;
  }

  [[nodiscard]] bool contains(int x, int y, int z) const {
    return x0 <= x && x < x1 && y0 <= y && y < y1 && z0 <= z && z < z1;
  }

  /// Surface half-area, the 3-D communication proxy (dx*dy + dy*dz + dz*dx).
  [[nodiscard]] std::int64_t half_surface() const {
    if (empty()) return 0;
    return static_cast<std::int64_t>(dx()) * dy() +
           static_cast<std::int64_t>(dy()) * dz() +
           static_cast<std::int64_t>(dz()) * dx();
  }

  friend bool operator==(const Box&, const Box&) = default;

  [[nodiscard]] std::string to_string() const {
    // Appends to one string, as Rect::to_string does: `"[" +
    // std::to_string(...)` trips GCC 12's -Wrestrict false positive.
    std::string s = "[";
    s += std::to_string(x0) + "," + std::to_string(x1) + ")x[";
    s += std::to_string(y0) + "," + std::to_string(y1) + ")x[";
    s += std::to_string(z0) + "," + std::to_string(z1) + ")";
    return s;
  }
};

}  // namespace rectpart
