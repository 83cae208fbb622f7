// SPDX-License-Identifier: Apache-2.0
// Small string helpers used by the assembler and report writers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace mp3d {

std::string_view trim(std::string_view s);
std::vector<std::string> split(std::string_view s, char sep);
/// Split on any whitespace, skipping empty fields.
std::vector<std::string> split_ws(std::string_view s);
bool starts_with(std::string_view s, std::string_view prefix);
std::string to_lower(std::string_view s);
/// JSON string escaping (control characters, quotes, backslash).
std::string json_escape(const std::string& s);
/// printf-style formatting into std::string.
std::string strfmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Parse an integer with optional 0x/0b prefix and +- sign. Returns false on
/// malformed input (no exceptions: the assembler reports its own errors).
bool parse_int(std::string_view s, long long& out);

}  // namespace mp3d
