// The JSON primitives every obs writer shares: string escaping, the one
// number format, object keys, and writing a whole document to a file. One
// copy, so the trace, metrics, health and flight sidecars cannot drift
// apart in how they spell the same value.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

namespace aqm::obs::json {

/// Appends `s` as a quoted, escaped JSON string.
void string(std::string& out, std::string_view s);
/// Appends `"key":`.
void key(std::string& out, std::string_view k);

/// Appends member `k` of the object open at the end of `out`: a comma
/// unless the object's `{` was just written, then `"k":` and the value.
/// Counts print in decimal, strings quoted, and doubles as %.17g (exact
/// for any double and the same on every libc) or as `null` when not
/// finite, since JSON has no inf/nan literals. The key-only form leaves
/// the value to the caller.
void member(std::string& out, std::string_view k);
void member(std::string& out, std::string_view k, std::uint64_t v);
void member(std::string& out, std::string_view k, double v);
void member(std::string& out, std::string_view k, std::string_view v);

/// Opens `path`, lets `write` stream the document into it and flushes;
/// false when the file cannot be opened or written.
bool write_file(const std::string& path, const std::function<void(std::ostream&)>& write);

}  // namespace aqm::obs::json
