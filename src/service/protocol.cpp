#include "service/protocol.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "util/json.hpp"

namespace rectpart::service {

namespace {

const char* op_name(Op op) {
  switch (op) {
    case Op::kSolve: return "solve";
    case Op::kPing: return "ping";
    case Op::kCounters: return "counters";
    case Op::kMetrics: return "metrics";
    case Op::kShutdown: return "shutdown";
  }
  return "solve";
}

bool op_from_name(const std::string& s, Op* out) {
  if (s == "solve") *out = Op::kSolve;
  else if (s == "ping") *out = Op::kPing;
  else if (s == "counters") *out = Op::kCounters;
  else if (s == "metrics") *out = Op::kMetrics;
  else if (s == "shutdown") *out = Op::kShutdown;
  else return false;
  return true;
}

bool fail(std::string* error, std::string msg) {
  if (error != nullptr) *error = std::move(msg);
  return false;
}

/// Typed member access: absent is fine (keeps `*out`), present-but-wrong
/// type is an error — a header with "m": "8" is a confused client, and
/// silently reading the default would solve the wrong problem.
bool read_int_member(const JsonValue& obj, const char* key, std::int64_t* out,
                     std::string* error) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return true;
  if (!v->is_int())
    return fail(error, std::string("header field '") + key +
                           "' must be an integer");
  *out = v->as_int();
  return true;
}

bool read_string_member(const JsonValue& obj, const char* key,
                        std::string* out, std::string* error) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return true;
  if (!v->is_string())
    return fail(error,
                std::string("header field '") + key + "' must be a string");
  *out = v->as_string();
  return true;
}

bool read_bool_member(const JsonValue& obj, const char* key, bool* out,
                      std::string* error) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return true;
  if (!v->is_bool())
    return fail(error,
                std::string("header field '") + key + "' must be a boolean");
  *out = v->as_bool();
  return true;
}

void add_member(JsonValue& obj, const char* key, JsonValue v) {
  obj.members().emplace_back(key, std::move(v));
}

}  // namespace

bool parse_request_header(const std::string& line, RequestHeader* out,
                          std::string* error) {
  std::string json_error;
  const auto doc = json_parse(line, &json_error);
  if (!doc.has_value())
    return fail(error, "malformed request header: " + json_error);
  if (!doc->is_object())
    return fail(error, "request header must be a JSON object");

  RequestHeader h;
  std::string op_string;
  if (!read_string_member(*doc, "op", &op_string, error)) return false;
  if (op_string.empty())
    return fail(error, "request header is missing 'op'");
  if (!op_from_name(op_string, &h.op))
    return fail(error,
                "unknown op '" + op_string +
                    "' (expected solve, ping, counters, metrics, or "
                    "shutdown)");
  if (!read_int_member(*doc, "id", &h.id, error)) return false;
  if (!read_string_member(*doc, "algo", &h.algo, error)) return false;
  if (!read_int_member(*doc, "m", &h.m, error)) return false;
  if (!read_int_member(*doc, "rows", &h.rows, error)) return false;
  if (!read_int_member(*doc, "cols", &h.cols, error)) return false;
  if (!read_bool_member(*doc, "upgrade", &h.upgrade, error)) return false;
  if (!read_string_member(*doc, "lineage", &h.lineage, error)) return false;
  if (!read_string_member(*doc, "format", &h.format, error)) return false;
  if (!read_int_member(*doc, "nnz", &h.nnz, error)) return false;
  if (const JsonValue* v = doc->find("deadline_ms"); v != nullptr) {
    if (!v->is_int())
      return fail(error, "header field 'deadline_ms' must be an integer");
    h.deadline_ms = v->as_int();
  }

  if (h.op == Op::kSolve) {
    if (h.rows < 0 || h.cols < 0)
      return fail(error, "solve request has negative dimensions (" +
                             std::to_string(h.rows) + " x " +
                             std::to_string(h.cols) + ")");
    if (h.m < 1)
      return fail(error,
                  "solve request requires m >= 1, got " + std::to_string(h.m));
    if (h.deadline_ms.has_value() && *h.deadline_ms < 0)
      return fail(error, "solve request has negative deadline_ms");
    if (h.deadline_ms.has_value() && *h.deadline_ms > kMaxDeadlineMs)
      return fail(error, "solve request has deadline_ms=" +
                             std::to_string(*h.deadline_ms) +
                             " beyond the limit of " +
                             std::to_string(kMaxDeadlineMs) + " (one year)");
    if (h.algo.empty())
      return fail(error, "solve request has an empty 'algo'");
    if (h.format != "dense" && h.format != "coo")
      return fail(error, "unknown payload format '" + h.format +
                             "' (expected dense or coo)");
    if (h.nnz < 0)
      return fail(error, "solve request has negative nnz");
  }
  *out = std::move(h);
  return true;
}

std::string serialize_request_header(const RequestHeader& h) {
  JsonValue obj = JsonValue::make_object();
  add_member(obj, "op", JsonValue::make_string(op_name(h.op)));
  add_member(obj, "id", JsonValue::make_int(h.id));
  if (h.op == Op::kSolve) {
    add_member(obj, "algo", JsonValue::make_string(h.algo));
    add_member(obj, "m", JsonValue::make_int(h.m));
    add_member(obj, "rows", JsonValue::make_int(h.rows));
    add_member(obj, "cols", JsonValue::make_int(h.cols));
    if (h.deadline_ms.has_value())
      add_member(obj, "deadline_ms", JsonValue::make_int(*h.deadline_ms));
    if (h.upgrade) add_member(obj, "upgrade", JsonValue::make_bool(true));
    if (!h.lineage.empty())
      add_member(obj, "lineage", JsonValue::make_string(h.lineage));
    if (h.format == "coo") {
      add_member(obj, "format", JsonValue::make_string(h.format));
      add_member(obj, "nnz", JsonValue::make_int(h.nnz));
    }
  }
  return json_serialize(obj);
}

std::string serialize_response(const Response& r) {
  JsonValue obj = JsonValue::make_object();
  add_member(obj, "id", JsonValue::make_int(r.id));
  add_member(obj, "status", JsonValue::make_string(r.ok ? "ok" : "error"));
  if (!r.ok) {
    add_member(obj, "message", JsonValue::make_string(r.error));
    return json_serialize(obj);
  }
  add_member(obj, "final", JsonValue::make_bool(r.final_reply));
  if (!r.algo.empty()) {
    add_member(obj, "algo", JsonValue::make_string(r.algo));
    add_member(obj, "m", JsonValue::make_int(r.m));
    add_member(obj, "cache_hit", JsonValue::make_bool(r.cache_hit));
    add_member(obj, "deadline_return",
               JsonValue::make_bool(r.deadline_return));
    if (!r.rebalance.empty())
      add_member(obj, "rebalance", JsonValue::make_string(r.rebalance));
    add_member(obj, "ms", JsonValue::make_double(r.ms));
    add_member(obj, "lmax", JsonValue::make_int(r.lmax));
    add_member(obj, "imbalance", JsonValue::make_double(r.imbalance));
    JsonValue rects = JsonValue::make_array();
    for (const Rect& rect : r.partition.rects) {
      JsonValue quad = JsonValue::make_array();
      quad.items().push_back(JsonValue::make_int(rect.x0));
      quad.items().push_back(JsonValue::make_int(rect.x1));
      quad.items().push_back(JsonValue::make_int(rect.y0));
      quad.items().push_back(JsonValue::make_int(rect.y1));
      rects.items().push_back(std::move(quad));
    }
    add_member(obj, "rects", std::move(rects));
  }
  if (!r.version.empty()) {
    add_member(obj, "version", JsonValue::make_string(r.version));
    add_member(obj, "uptime_ms", JsonValue::make_double(r.uptime_ms));
    add_member(obj, "cache_instances",
               JsonValue::make_int(r.cache_instances));
    add_member(obj, "cache_bytes", JsonValue::make_int(r.cache_bytes));
  }
  if (!r.metrics_text.empty()) {
    add_member(obj, "metrics_prom", JsonValue::make_string(r.metrics_text));
    if (auto telemetry = json_parse(r.telemetry_json); telemetry.has_value())
      add_member(obj, "telemetry", std::move(*telemetry));
  }
  if (!r.counters_json.empty()) {
    // The snapshot serializer emits valid JSON; parse it back so the
    // response stays one well-formed document rather than spliced text.
    if (auto counters = json_parse(r.counters_json); counters.has_value())
      add_member(obj, "counters", std::move(*counters));
  }
  return json_serialize(obj);
}

bool parse_response(const std::string& line, Response* out,
                    std::string* error) {
  std::string json_error;
  const auto doc = json_parse(line, &json_error);
  if (!doc.has_value())
    return fail(error, "malformed response: " + json_error);
  if (!doc->is_object())
    return fail(error, "response must be a JSON object");

  Response r;
  r.id = doc->get_int("id", 0);
  r.ok = doc->get_string("status", "error") == "ok";
  r.error = doc->get_string("message", "");
  if (const JsonValue* v = doc->find("final"); v != nullptr && v->is_bool())
    r.final_reply = v->as_bool();
  r.algo = doc->get_string("algo", "");
  r.m = doc->get_int("m", 0);
  if (const JsonValue* v = doc->find("cache_hit");
      v != nullptr && v->is_bool())
    r.cache_hit = v->as_bool();
  if (const JsonValue* v = doc->find("deadline_return");
      v != nullptr && v->is_bool())
    r.deadline_return = v->as_bool();
  r.rebalance = doc->get_string("rebalance", "");
  r.ms = doc->get_double("ms", 0);
  r.lmax = doc->get_int("lmax", 0);
  r.imbalance = doc->get_double("imbalance", 0);
  if (const JsonValue* rects = doc->find("rects"); rects != nullptr) {
    if (!rects->is_array())
      return fail(error, "response field 'rects' must be an array");
    for (const JsonValue& quad : rects->items()) {
      if (!quad.is_array() || quad.items().size() != 4)
        return fail(error, "response rect must be a 4-element array");
      for (const JsonValue& c : quad.items())
        if (!c.is_int())
          return fail(error, "response rect coordinate must be an integer");
      r.partition.rects.push_back(
          Rect{static_cast<int>(quad.items()[0].as_int()),
               static_cast<int>(quad.items()[1].as_int()),
               static_cast<int>(quad.items()[2].as_int()),
               static_cast<int>(quad.items()[3].as_int())});
    }
  }
  if (const JsonValue* counters = doc->find("counters"); counters != nullptr)
    r.counters_json = json_serialize(*counters);
  r.version = doc->get_string("version", "");
  if (!r.version.empty()) {
    r.uptime_ms = doc->get_double("uptime_ms", -1);
    r.cache_instances = doc->get_int("cache_instances", -1);
    r.cache_bytes = doc->get_int("cache_bytes", -1);
  }
  r.metrics_text = doc->get_string("metrics_prom", "");
  if (const JsonValue* telemetry = doc->find("telemetry");
      telemetry != nullptr)
    r.telemetry_json = json_serialize(*telemetry);
  *out = std::move(r);
  return true;
}

bool write_all(int fd, const void* data, std::size_t n, int stall_ms) {
  const char* p = static_cast<const char*>(data);
  // Remaining poll budget for the *current* stall; refilled whenever a send
  // makes progress, so the bound is on a single stall, not the whole write.
  int stall_left = stall_ms;
  while (n > 0) {
    const ssize_t written = ::send(fd, p, n, MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Kernel buffer is full.  Wait (bounded) for drain; poll in slices
        // so an EINTR or a spurious wakeup cannot reset the budget.
        constexpr int kSliceMs = 50;
        bool writable = false;
        while (stall_left > 0) {
          pollfd pfd{fd, POLLOUT, 0};
          const int slice = std::min(kSliceMs, stall_left);
          const int r = ::poll(&pfd, 1, slice);
          if (r < 0 && errno != EINTR) return false;
          stall_left -= slice;
          if (r > 0) {
            writable = true;  // or a socket error — the next send reports it
            break;
          }
        }
        if (!writable) return false;  // peer never drained: give up
        continue;
      }
      return false;
    }
    if (written > 0) stall_left = stall_ms;  // progress resets the deadline
    p += written;
    n -= static_cast<std::size_t>(written);
  }
  return true;
}

bool read_exact(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t got = ::recv(fd, p, n, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;  // EOF mid-object
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

bool read_exact(int fd, std::string* carry, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  const std::size_t from_carry = std::min(carry->size(), n);
  if (from_carry > 0) {
    carry->copy(p, from_carry);
    carry->erase(0, from_carry);
    p += from_carry;
    n -= from_carry;
  }
  return read_exact(fd, p, n);
}

bool read_line(int fd, std::string* carry, std::string* line,
               std::size_t max_len) {
  for (;;) {
    const std::size_t newline = carry->find('\n');
    if (newline != std::string::npos) {
      line->assign(*carry, 0, newline);
      carry->erase(0, newline + 1);
      return line->size() <= max_len;
    }
    if (carry->size() > max_len) return false;  // unterminated runaway header
    char buf[4096];
    const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;  // clean EOF between requests
    carry->append(buf, static_cast<std::size_t>(got));
  }
}

}  // namespace rectpart::service
