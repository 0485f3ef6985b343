#include "obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace aqm::obs::json {
namespace {

void escape(std::string& out, std::string_view s) {
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
}

void number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

void string(std::string& out, std::string_view s) {
  out += '"';
  escape(out, s);
  out += '"';
}

void key(std::string& out, std::string_view k) {
  string(out, k);
  out += ':';
}

void member(std::string& out, std::string_view k) {
  if (!out.empty() && out.back() != '{') out += ',';
  key(out, k);
}

void member(std::string& out, std::string_view k, std::uint64_t v) {
  member(out, k);
  out += std::to_string(v);
}

void member(std::string& out, std::string_view k, double v) {
  member(out, k);
  number(out, v);
}

void member(std::string& out, std::string_view k, std::string_view v) {
  member(out, k);
  string(out, v);
}

bool write_file(const std::string& path, const std::function<void(std::ostream&)>& write) {
  std::ofstream os(path, std::ios::binary);
  if (!os) return false;
  write(os);
  os.flush();
  return static_cast<bool>(os);
}

}  // namespace aqm::obs::json
