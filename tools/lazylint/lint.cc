#include "lint.h"

#include <algorithm>
#include <initializer_list>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

namespace lazyeye::lint {

namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool ws_char(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }

/// Message builder that sidesteps gcc-12's -Wrestrict false positive on
/// `"literal" + std::string&&`.
std::string cat(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (const std::string_view part : parts) out.append(part);
  return out;
}

/// Whole-identifier occurrence of `word` in `s` at or after `from`.
std::size_t find_ident(std::string_view s, std::string_view word,
                       std::size_t from = 0) {
  while (from < s.size()) {
    const std::size_t pos = s.find(word, from);
    if (pos == std::string_view::npos) return std::string_view::npos;
    const bool left_ok = pos == 0 || !ident_char(s[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= s.size() || !ident_char(s[end]);
    if (left_ok && right_ok) return pos;
    from = pos + 1;
  }
  return std::string_view::npos;
}

std::size_t skip_ws(std::string_view s, std::size_t pos) {
  while (pos < s.size() && ws_char(s[pos])) ++pos;
  return pos;
}

/// Last non-whitespace position strictly before `pos`, or npos.
std::size_t prev_nonws(std::string_view s, std::size_t pos) {
  while (pos > 0) {
    --pos;
    if (!ws_char(s[pos])) return pos;
  }
  return std::string_view::npos;
}

/// True when the identifier starting at `pos` is a member access
/// (`x.name` / `x->name`).
bool is_member_access(std::string_view s, std::size_t pos) {
  const std::size_t p = prev_nonws(s, pos);
  if (p == std::string_view::npos) return false;
  if (s[p] == '.') return true;
  return s[p] == '>' && p > 0 && s[p - 1] == '-';
}

/// True when the call-form identifier at `pos` is a *declaration* of a
/// same-named function or member (a type token directly precedes it, e.g.
/// `long time() const`) rather than a call. Control keywords that legally
/// precede a call expression are not type tokens.
bool is_declaration_context(std::string_view s, std::size_t pos) {
  const std::size_t p = prev_nonws(s, pos);
  if (p == std::string_view::npos) return true;
  if (!ident_char(s[p])) return false;
  std::size_t begin = p;
  while (begin > 0 && ident_char(s[begin - 1])) --begin;
  const std::string_view tok = s.substr(begin, p + 1 - begin);
  constexpr std::string_view kCallKeywords[] = {
      "return", "case", "throw", "else", "do",
      "co_return", "co_await", "co_yield",
  };
  return std::none_of(std::begin(kCallKeywords), std::end(kCallKeywords),
                      [&](std::string_view kw) { return kw == tok; });
}

/// For an identifier at `pos` preceded by `::`, extracts the qualifying
/// identifier (e.g. "std" in `std::rand`). Empty when unqualified.
std::string_view qualifier_before(std::string_view s, std::size_t pos) {
  std::size_t p = prev_nonws(s, pos);
  if (p == std::string_view::npos || s[p] != ':' || p == 0 || s[p - 1] != ':') {
    return {};
  }
  p = prev_nonws(s, p - 1);
  if (p == std::string_view::npos || !ident_char(s[p])) return {};
  std::size_t begin = p;
  while (begin > 0 && ident_char(s[begin - 1])) --begin;
  return s.substr(begin, p + 1 - begin);
}

// ------------------------------------------------------------------------
// Comment / string stripping.
//
// Produces a same-length copy of the source with comment bodies and
// string/char literal contents blanked to spaces (newlines kept), so every
// rule matches code only — a banned token inside a doc comment or a log
// string is never a finding. Handles //, /*...*/, "..." with escapes,
// '...', and R"delim(...)delim" raw strings.
void strip_comments_and_strings(std::string_view src, std::string& code,
                                std::string& comments) {
  std::string out{src};
  std::string com(src.size(), ' ');
  for (std::size_t i = 0; i < src.size(); ++i) {
    if (src[i] == '\n') com[i] = '\n';
  }
  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw };
  State state = State::kCode;
  std::string raw_close;  // ")delim\"" for the active raw string
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !ident_char(src[i - 1]))) {
          const std::size_t open = src.find('(', i + 2);
          if (open != std::string_view::npos) {
            raw_close = ")";
            raw_close.append(src.substr(i + 2, open - (i + 2)));
            raw_close.push_back('"');
            for (std::size_t j = i; j <= open; ++j) out[j] = ' ';
            i = open;
            state = State::kRaw;
          }
        } else if (c == '"') {
          state = State::kString;
          out[i] = ' ';
        } else if (c == '\'') {
          state = State::kChar;
          out[i] = ' ';
        }
        break;
      case State::kLine:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
          com[i] = c;
        }
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          out[i] = out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
          com[i] = c;
        }
        break;
      case State::kString:
      case State::kChar: {
        const char close = state == State::kString ? '"' : '\'';
        if (c == '\\' && i + 1 < src.size()) {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else {
          if (c != '\n') out[i] = ' ';
          if (c == close) state = State::kCode;
        }
        break;
      }
      case State::kRaw:
        if (src.compare(i, raw_close.size(), raw_close) == 0) {
          for (std::size_t j = 0; j < raw_close.size(); ++j) out[i + j] = ' ';
          i += raw_close.size() - 1;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  code = std::move(out);
  comments = std::move(com);
}

// ------------------------------------------------------------------------
// Per-file scan context.

struct Suppression {
  Rule rule = Rule::kSuppression;
  int decl_line = 0;
  bool has_reason = false;
  bool used = false;
  std::string bad_name;  // set when the rule name did not parse
};

struct FileScan {
  std::string_view path;
  std::string_view raw;
  std::string code;      // comment/string-stripped, same length as raw
  std::string comments;  // comment text only, same length as raw
  std::vector<std::size_t> line_starts;
  std::multimap<int, Suppression> suppressions;  // keyed by target line
  std::vector<Finding> findings;

  int line_of(std::size_t offset) const {
    const auto it = std::upper_bound(line_starts.begin(), line_starts.end(),
                                     offset);
    return static_cast<int>(it - line_starts.begin());
  }

  std::string_view code_line(int line) const {  // 1-based
    const std::size_t begin = line_starts[static_cast<std::size_t>(line - 1)];
    const std::size_t end =
        static_cast<std::size_t>(line) < line_starts.size()
            ? line_starts[static_cast<std::size_t>(line)] - 1
            : code.size();
    return std::string_view{code}.substr(begin, end - begin);
  }

  std::string_view comment_line(int line) const {
    const std::size_t begin = line_starts[static_cast<std::size_t>(line - 1)];
    const std::size_t end =
        static_cast<std::size_t>(line) < line_starts.size()
            ? line_starts[static_cast<std::size_t>(line)] - 1
            : comments.size();
    return std::string_view{comments}.substr(begin, end - begin);
  }

  int line_count() const { return static_cast<int>(line_starts.size()); }

  bool line_has_code(int line) const {
    const std::string_view code_view = code_line(line);
    return std::any_of(code_view.begin(), code_view.end(),
                       [](char c) { return !ws_char(c); });
  }

  /// Reports `rule` at `offset` unless an in-scope suppression claims it.
  void emit(Rule rule, std::size_t offset, std::string message) {
    const int line = line_of(offset);
    auto [begin, end] = suppressions.equal_range(line);
    for (auto it = begin; it != end; ++it) {
      if (it->second.rule == rule) {
        it->second.used = true;
        return;
      }
    }
    findings.push_back(Finding{rule, std::string{path}, line,
                               std::move(message)});
  }
};

// Parses every `// lazylint: <rule>-ok(<reason>)` annotation. An annotation
// on a comment-only line targets the next line (so long statements can keep
// the explanation above them); otherwise it targets its own line.
void collect_suppressions(FileScan& scan) {
  constexpr std::string_view kMarker = "lazylint:";
  for (int line = 1; line <= scan.line_count(); ++line) {
    const std::string_view raw = scan.comment_line(line);
    std::size_t pos = raw.find(kMarker);
    if (pos == std::string_view::npos) continue;
    const int target = scan.line_has_code(line) ? line : line + 1;
    pos += kMarker.size();
    while (pos < raw.size()) {
      pos = skip_ws(raw, pos);
      // Rule names contain hyphens (`ptr-order`), so the name runs up to the
      // first `-ok(` suffix.
      constexpr std::string_view kOk = "-ok(";
      const std::size_t ok_at = raw.find(kOk, pos);
      if (ok_at == std::string_view::npos || ok_at == pos) break;
      const std::string_view name = raw.substr(pos, ok_at - pos);
      const bool name_ok =
          std::all_of(name.begin(), name.end(),
                      [](char c) { return ident_char(c) || c == '-'; });
      if (!name_ok) break;
      const std::size_t reason_begin = ok_at + kOk.size();
      const std::size_t reason_end = raw.find(')', reason_begin);
      if (reason_end == std::string_view::npos) break;
      std::string_view reason = raw.substr(reason_begin,
                                           reason_end - reason_begin);
      while (!reason.empty() && ws_char(reason.front())) reason.remove_prefix(1);
      Suppression s;
      s.decl_line = line;
      s.has_reason = !reason.empty();
      if (!rule_from_name(name, s.rule)) s.bad_name = std::string{name};
      scan.suppressions.emplace(target, s);
      pos = reason_end + 1;
    }
  }
}

void report_suppression_problems(FileScan& scan) {
  for (const auto& [target, s] : scan.suppressions) {
    if (!s.bad_name.empty()) {
      scan.findings.push_back(Finding{
          Rule::kSuppression, std::string{scan.path}, s.decl_line,
          cat({"unknown rule '", s.bad_name,
               "' in lazylint suppression"})});
    } else if (!s.has_reason) {
      scan.findings.push_back(Finding{
          Rule::kSuppression, std::string{scan.path}, s.decl_line,
          cat({"suppression for '", rule_name(s.rule),
               "' needs a non-empty reason"})});
    } else if (!s.used) {
      scan.findings.push_back(Finding{
          Rule::kSuppression, std::string{scan.path}, s.decl_line,
          cat({"unused suppression for '", rule_name(s.rule),
               "' (no matching finding)"})});
    }
  }
}

// ------------------------------------------------------------------------
// Rule: nondeterminism.

// Any mention is banned (these names are unambiguous).
constexpr std::string_view kBannedAnywhere[] = {
    "system_clock",  "steady_clock", "high_resolution_clock",
    "random_device", "gettimeofday", "clock_gettime",
    "getenv",        "secure_getenv", "srand",
    "srandom",       "rand_r",       "drand48",
    "lrand48",       "mt19937",      "mt19937_64",
};

// Banned only as a call of the global/std name (members and non-std
// qualified names like util::time stay legal).
constexpr std::string_view kBannedCalls[] = {"rand", "time", "clock",
                                             "random"};

void check_nondeterminism(FileScan& scan) {
  const std::string_view code = scan.code;
  for (const std::string_view word : kBannedAnywhere) {
    for (std::size_t pos = find_ident(code, word); pos != std::string_view::npos;
         pos = find_ident(code, word, pos + 1)) {
      scan.emit(Rule::kNondeterminism, pos,
                cat({"'", word,
                     "' is a wall-clock/entropy/environment source; use "
                     "SimTime and the seeded util/ Rng"}));
    }
  }
  for (const std::string_view word : kBannedCalls) {
    for (std::size_t pos = find_ident(code, word); pos != std::string_view::npos;
         pos = find_ident(code, word, pos + 1)) {
      const std::size_t after = skip_ws(code, pos + word.size());
      if (after >= code.size() || code[after] != '(') continue;
      if (is_member_access(code, pos)) continue;
      if (is_declaration_context(code, pos)) continue;
      const std::string_view qual = qualifier_before(code, pos);
      if (!qual.empty() && qual != "std") continue;
      scan.emit(Rule::kNondeterminism, pos,
                cat({"call to '", word,
                     "()' is nondeterministic; use SimTime and the seeded "
                     "util/ Rng"}));
    }
  }
}

// ------------------------------------------------------------------------
// Rule: unordered-iter.

/// Names declared with an unordered container type in this file (the
/// identifier after the template argument list on a declaration line).
std::vector<std::string> unordered_decl_names(const FileScan& scan) {
  std::vector<std::string> names;
  for (int line = 1; line <= scan.line_count(); ++line) {
    const std::string_view code_view = scan.code_line(line);
    if (find_ident(code_view, "unordered_map") == std::string_view::npos &&
        find_ident(code_view, "unordered_set") == std::string_view::npos &&
        find_ident(code_view, "unordered_multimap") ==
            std::string_view::npos &&
        find_ident(code_view, "unordered_multiset") ==
            std::string_view::npos) {
      continue;
    }
    const std::size_t close = code_view.rfind('>');
    if (close == std::string_view::npos) continue;
    std::size_t pos = close + 1;
    while (pos < code_view.size() && !ident_char(code_view[pos])) {
      // A declarator never crosses these; `>::iterator it` etc. stays out.
      if (code_view[pos] == ';' || code_view[pos] == ':' ||
          code_view[pos] == '(') {
        pos = code_view.size();
        break;
      }
      ++pos;
    }
    std::size_t end = pos;
    while (end < code_view.size() && ident_char(code_view[end])) ++end;
    if (end > pos) names.emplace_back(code_view.substr(pos, end - pos));
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

void check_unordered_iter(FileScan& scan) {
  const std::string_view code = scan.code;
  const std::vector<std::string> names = unordered_decl_names(scan);

  auto range_mentions_unordered = [&](std::string_view range_expr) {
    if (range_expr.find("unordered_") != std::string_view::npos) return true;
    return std::any_of(names.begin(), names.end(), [&](const std::string& n) {
      return find_ident(range_expr, n) != std::string_view::npos;
    });
  };

  // Range-for whose range expression names an unordered container.
  for (std::size_t pos = find_ident(code, "for"); pos != std::string_view::npos;
       pos = find_ident(code, "for", pos + 1)) {
    std::size_t open = skip_ws(code, pos + 3);
    if (open >= code.size() || code[open] != '(') continue;
    int depth = 0;
    std::size_t colon = std::string_view::npos;
    std::size_t close = std::string_view::npos;
    for (std::size_t i = open; i < code.size(); ++i) {
      const char c = code[i];
      if (c == '(' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == ']' || c == '}') {
        --depth;
        if (depth == 0) {
          close = i;
          break;
        }
      }
      if (c == ':' && depth == 1 && colon == std::string_view::npos) {
        const bool double_colon =
            (i + 1 < code.size() && code[i + 1] == ':') ||
            (i > 0 && code[i - 1] == ':');
        if (!double_colon) colon = i;
      }
    }
    if (colon == std::string_view::npos || close == std::string_view::npos) {
      continue;
    }
    const std::string_view range_expr =
        code.substr(colon + 1, close - colon - 1);
    if (range_mentions_unordered(range_expr)) {
      scan.emit(Rule::kUnorderedIter, pos,
                "range-for over an unordered container leaks hash order; "
                "iterate a deterministically ordered copy or index instead");
    }
  }

  // Explicit iterator walks: name.begin() / name->begin() / begin(name).
  constexpr std::string_view kIterStarts[] = {"begin", "cbegin", "rbegin",
                                              "crbegin"};
  for (const std::string& name : names) {
    for (std::size_t pos = find_ident(code, name);
         pos != std::string_view::npos;
         pos = find_ident(code, name, pos + 1)) {
      std::size_t after = skip_ws(code, pos + name.size());
      bool member = false;
      if (after < code.size() && code[after] == '.') {
        member = true;
        ++after;
      } else if (after + 1 < code.size() && code[after] == '-' &&
                 code[after + 1] == '>') {
        member = true;
        after += 2;
      }
      if (!member) continue;
      after = skip_ws(code, after);
      for (const std::string_view fn : kIterStarts) {
        if (code.compare(after, fn.size(), fn) == 0 &&
            skip_ws(code, after + fn.size()) < code.size() &&
            code[skip_ws(code, after + fn.size())] == '(') {
          scan.emit(Rule::kUnorderedIter, pos,
                    cat({"iterator walk over unordered container '", name,
                         "' leaks hash order"}));
          break;
        }
      }
    }
  }
  for (const std::string_view fn : kIterStarts) {
    for (std::size_t pos = find_ident(code, fn); pos != std::string_view::npos;
         pos = find_ident(code, fn, pos + 1)) {
      if (is_member_access(code, pos)) continue;  // handled above
      const std::size_t open = skip_ws(code, pos + fn.size());
      if (open >= code.size() || code[open] != '(') continue;
      const std::size_t arg_begin = skip_ws(code, open + 1);
      std::size_t arg_end = arg_begin;
      while (arg_end < code.size() && ident_char(code[arg_end])) ++arg_end;
      const std::string arg{code.substr(arg_begin, arg_end - arg_begin)};
      if (std::find(names.begin(), names.end(), arg) != names.end() &&
          skip_ws(code, arg_end) < code.size() &&
          code[skip_ws(code, arg_end)] == ')') {
        scan.emit(Rule::kUnorderedIter, pos,
                  cat({"iterator walk over unordered container '", arg,
                       "' leaks hash order"}));
      }
    }
  }
}

// ------------------------------------------------------------------------
// Rule: ptr-order.

/// First template argument after the '<' at `open`, or empty.
std::string_view first_template_arg(std::string_view code, std::size_t open) {
  int depth = 1;
  const std::size_t begin = open + 1;
  for (std::size_t i = begin; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '<' || c == '(') {
      ++depth;
    } else if (c == '>' || c == ')') {
      --depth;
    }
    if ((c == ',' && depth == 1) || depth == 0) {
      return code.substr(begin, i - begin);
    }
    if (c == ';') break;
  }
  return {};
}

void check_ptr_order(FileScan& scan) {
  const std::string_view code = scan.code;
  constexpr std::string_view kOrdered[] = {"map", "set", "multimap",
                                           "multiset", "less", "greater"};
  for (const std::string_view word : kOrdered) {
    for (std::size_t pos = find_ident(code, word); pos != std::string_view::npos;
         pos = find_ident(code, word, pos + 1)) {
      const std::size_t open = skip_ws(code, pos + word.size());
      if (open >= code.size() || code[open] != '<') continue;
      std::string_view arg = first_template_arg(code, open);
      while (!arg.empty() && ws_char(arg.back())) arg.remove_suffix(1);
      if (arg.empty() || arg.back() != '*') continue;
      scan.emit(Rule::kPtrOrder, pos,
                cat({"'", word, "<", arg,
                     ", ...>' orders by raw pointer value, which differs "
                     "run to run; key by a stable id instead"}));
    }
  }
}

// ------------------------------------------------------------------------
// Rule: raw-alloc.

void check_raw_alloc(FileScan& scan) {
  const std::string_view code = scan.code;
  for (std::size_t pos = find_ident(code, "new"); pos != std::string_view::npos;
       pos = find_ident(code, "new", pos + 1)) {
    const std::size_t after = skip_ws(code, pos + 3);
    if (after < code.size() && code[after] == '(') {
      // Placement form: constructs into caller-provided storage and does not
      // allocate — except the nothrow forms, which do.
      const std::size_t close = code.find(')', after);
      const std::string_view args =
          close == std::string_view::npos
              ? std::string_view{}
              : code.substr(after, close - after);
      if (args.find("nothrow") == std::string_view::npos) continue;
    }
    scan.emit(Rule::kRawAlloc, pos,
              "raw 'new' in a pooled hot path; allocate from the world's "
              "Arena/BufferPool/MessagePool instead");
  }
  for (std::size_t pos = find_ident(code, "delete");
       pos != std::string_view::npos;
       pos = find_ident(code, "delete", pos + 1)) {
    const std::size_t prev = prev_nonws(code, pos);
    if (prev != std::string_view::npos && code[prev] == '=') continue;
    scan.emit(Rule::kRawAlloc, pos,
              "raw 'delete' in a pooled hot path; pooled storage is "
              "released by its pool/arena, not by hand");
  }
  constexpr std::string_view kAllocCalls[] = {
      "malloc", "calloc",        "realloc",        "free",
      "strdup", "aligned_alloc", "posix_memalign",
  };
  for (const std::string_view word : kAllocCalls) {
    for (std::size_t pos = find_ident(code, word); pos != std::string_view::npos;
         pos = find_ident(code, word, pos + 1)) {
      const std::size_t after = skip_ws(code, pos + word.size());
      if (after >= code.size() || code[after] != '(') continue;
      if (is_member_access(code, pos)) continue;  // pool.free(...) etc.
      if (is_declaration_context(code, pos)) continue;  // void free(void*);
      const std::string_view qual = qualifier_before(code, pos);
      if (!qual.empty() && qual != "std") continue;
      scan.emit(Rule::kRawAlloc, pos,
                cat({"'", word,
                     "()' in a pooled hot path; allocate from the world's "
                     "Arena/BufferPool/MessagePool instead"}));
    }
  }
}

// ------------------------------------------------------------------------
// Rule: unseeded-rng.

// The repo's engines require an explicit seed by construction (no default
// ctor), so here the rule is a source-level tripwire against anyone adding
// a default-seeded path later; the std engines below *do* default-construct
// from a fixed implementation seed today. (mt19937/mt19937_64 are already
// banned outright by the nondeterminism rule.)
constexpr std::string_view kRepoEngines[] = {"SplitMix64", "Rng"};
constexpr std::string_view kStdEngines[] = {
    "minstd_rand",   "minstd_rand0", "default_random_engine",
    "knuth_b",       "ranlux24",     "ranlux48",
    "ranlux24_base", "ranlux48_base",
};

/// True when the first non-ws char after `open` closes the group — i.e. the
/// constructor argument list is empty.
bool empty_group(std::string_view code, std::size_t open, char close) {
  const std::size_t p = skip_ws(code, open + 1);
  return p < code.size() && code[p] == close;
}

/// True when an `Engine(...)` / `Engine{...}` token at `pos` sits in
/// expression position (a temporary is being constructed) rather than in a
/// declaration (constructor declarations inside the engine's own class body,
/// `Engine() = default;`, etc.).
bool engine_expression_context(std::string_view code, std::size_t pos) {
  const std::size_t p = prev_nonws(code, pos);
  if (p == std::string_view::npos) return false;
  // Step back over a `qual::` prefix (`util::Rng{}`) and judge the token in
  // front of the qualifier instead.
  if (code[p] == ':' && p > 0 && code[p - 1] == ':') {
    const std::size_t q = prev_nonws(code, p - 1);
    if (q == std::string_view::npos || !ident_char(code[q])) return false;
    std::size_t begin = q;
    while (begin > 0 && ident_char(code[begin - 1])) --begin;
    return engine_expression_context(code, begin);
  }
  const char c = code[p];
  if (c == '=' || c == '(' || c == ',') return true;
  if (!ident_char(c)) return false;
  std::size_t begin = p;
  while (begin > 0 && ident_char(code[begin - 1])) --begin;
  const std::string_view tok = code.substr(begin, p + 1 - begin);
  return tok == "return" || tok == "co_return" || tok == "co_yield";
}

/// Scans for constructions of one engine type. `default_seeds` marks std
/// engines whose *bare* declaration (`std::minstd_rand eng;`) already
/// constructs from a silent default seed; the repo engines have no default
/// ctor, so a bare declaration there is a member seeded by its ctor init
/// list and stays legal.
void check_engine(FileScan& scan, std::string_view word, bool default_seeds) {
  const std::string_view code = scan.code;
  for (std::size_t pos = find_ident(code, word); pos != std::string_view::npos;
       pos = find_ident(code, word, pos + 1)) {
    if (is_member_access(code, pos)) continue;
    // `class Rng {`, `using Rng;`, forward declarations, friend decls.
    const std::size_t prev = prev_nonws(code, pos);
    if (prev != std::string_view::npos && ident_char(code[prev])) {
      std::size_t begin = prev;
      while (begin > 0 && ident_char(code[begin - 1])) --begin;
      const std::string_view tok = code.substr(begin, prev + 1 - begin);
      if (tok == "class" || tok == "struct" || tok == "typename" ||
          tok == "using" || tok == "friend") {
        continue;
      }
    }
    const std::size_t after = skip_ws(code, pos + word.size());
    if (after >= code.size()) continue;
    const char c = code[after];
    if (c == '(' || c == '{') {
      // Temporary or constructor declaration. Only an *empty* argument list
      // in expression position is an unseeded construction.
      if (!empty_group(code, after, c == '(' ? ')' : '}')) continue;
      if (!engine_expression_context(code, pos)) continue;
      scan.emit(Rule::kUnseededRng, pos,
                cat({"'", word,
                     "' temporary constructed without a seed; derive one "
                     "from the campaign (seed, stream, index) tuple"}));
      continue;
    }
    // `Rng&` / `Rng*` parameters, `Rng;` type mentions, `Rng::` scope
    // accesses, `Rng>` template args are not constructions.
    if (!ident_char(c)) continue;
    std::size_t name_end = after;
    while (name_end < code.size() && ident_char(code[name_end])) ++name_end;
    const std::size_t next = skip_ws(code, name_end);
    if (next >= code.size()) continue;
    if (code[next] == '{') {
      if (empty_group(code, next, '}')) {
        scan.emit(Rule::kUnseededRng, pos,
                  cat({"'", word, " ", code.substr(after, name_end - after),
                       "{}' is declared without a seed; derive one from the "
                       "campaign (seed, stream, index) tuple"}));
      }
      continue;
    }
    if (code[next] == ';' && default_seeds) {
      scan.emit(Rule::kUnseededRng, pos,
                cat({"'", word, " ", code.substr(after, name_end - after),
                     ";' default-constructs from a silent implementation "
                     "seed; pass an explicit seed derived from the campaign "
                     "(seed, stream, index) tuple"}));
    }
    // `Engine name(args)` is seeded, `Engine name()` is a function
    // declaration, `Engine name,` / `Engine name)` are parameters the
    // caller seeds.
  }
}

void check_unseeded_rng(FileScan& scan) {
  for (const std::string_view word : kRepoEngines) {
    check_engine(scan, word, /*default_seeds=*/false);
  }
  for (const std::string_view word : kStdEngines) {
    check_engine(scan, word, /*default_seeds=*/true);
  }
}

// ------------------------------------------------------------------------
// Rule: std-function.

void check_std_function(FileScan& scan) {
  const std::string_view code = scan.code;
  for (std::size_t pos = find_ident(code, "std"); pos != std::string_view::npos;
       pos = find_ident(code, "std", pos + 1)) {
    std::size_t p = skip_ws(code, pos + 3);
    if (p + 1 >= code.size() || code[p] != ':' || code[p + 1] != ':') continue;
    p = skip_ws(code, p + 2);
    if (find_ident(code.substr(p, 9), "function") != 0) continue;
    scan.emit(Rule::kStdFunction, pos,
              "std::function in the simnet hot path; InlineFunction is "
              "mandated here (64-byte SBO, no per-capture heap spill)");
  }
}

// ------------------------------------------------------------------------
// Scoping.

std::string normalize(std::string_view rel_path) {
  std::string p{rel_path};
  std::replace(p.begin(), p.end(), '\\', '/');
  while (p.rfind("./", 0) == 0) p.erase(0, 2);
  return p;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Files allowed to use raw allocation inside the pooled hot-path
/// directories: these *are* the arena/pool/SBO implementations the rule
/// funnels everything else through.
constexpr std::string_view kRawAllocExempt[] = {
    "src/simnet/arena.h",        "src/simnet/buffer.h",
    "src/simnet/scenario_pool.h", "src/simnet/inline_callback.h",
    "src/dns/message_pool.h",
};

struct RuleScope {
  bool nondeterminism = false;
  bool unordered_iter = false;
  bool ptr_order = false;
  bool raw_alloc = false;
  bool std_function = false;
  bool unseeded_rng = false;
};

RuleScope scope_for(std::string_view path) {
  RuleScope scope;
  scope.unordered_iter = true;
  scope.ptr_order = true;
  scope.nondeterminism = starts_with(path, "src/");
  const bool pooled_dir = starts_with(path, "src/simnet/") ||
                          starts_with(path, "src/dns/") ||
                          starts_with(path, "src/transport/");
  scope.raw_alloc =
      pooled_dir && std::none_of(std::begin(kRawAllocExempt),
                                 std::end(kRawAllocExempt),
                                 [&](std::string_view f) { return f == path; });
  scope.std_function = starts_with(path, "src/simnet/") &&
                       path != "src/simnet/inline_callback.h";
  // src/util/ is in scope too: the engine implementations themselves must
  // thread seeds explicitly.
  scope.unseeded_rng = starts_with(path, "src/");
  return scope;
}

}  // namespace

std::string_view rule_name(Rule rule) {
  switch (rule) {
    case Rule::kNondeterminism: return "nondeterminism";
    case Rule::kUnorderedIter: return "unordered-iter";
    case Rule::kPtrOrder: return "ptr-order";
    case Rule::kRawAlloc: return "raw-alloc";
    case Rule::kStdFunction: return "std-function";
    case Rule::kUnseededRng: return "unseeded-rng";
    case Rule::kSuppression: return "suppression";
  }
  return "unknown";
}

bool rule_from_name(std::string_view name, Rule& out) {
  constexpr Rule kAll[] = {Rule::kNondeterminism, Rule::kUnorderedIter,
                           Rule::kPtrOrder, Rule::kRawAlloc,
                           Rule::kStdFunction, Rule::kUnseededRng};
  for (const Rule r : kAll) {
    if (rule_name(r) == name) {
      out = r;
      return true;
    }
  }
  return false;
}

std::vector<Finding> scan_source(std::string_view rel_path,
                                 std::string_view content) {
  const std::string path = normalize(rel_path);
  FileScan scan;
  scan.path = path;
  scan.raw = content;
  strip_comments_and_strings(content, scan.code, scan.comments);
  scan.line_starts.push_back(0);
  for (std::size_t i = 0; i < content.size(); ++i) {
    if (content[i] == '\n') scan.line_starts.push_back(i + 1);
  }

  // Blank preprocessor directives: `#include <new>` or `#include <random>`
  // name banned tokens without using them (any use in code is still caught).
  for (std::size_t start : scan.line_starts) {
    std::size_t p = start;
    while (p < scan.code.size() && (scan.code[p] == ' ' || scan.code[p] == '\t')) {
      ++p;
    }
    if (p >= scan.code.size() || scan.code[p] != '#') continue;
    while (p < scan.code.size() && scan.code[p] != '\n') {
      scan.code[p++] = ' ';
    }
  }

  collect_suppressions(scan);

  const RuleScope scope = scope_for(path);
  if (scope.nondeterminism) check_nondeterminism(scan);
  if (scope.unordered_iter) check_unordered_iter(scan);
  if (scope.ptr_order) check_ptr_order(scan);
  if (scope.raw_alloc) check_raw_alloc(scan);
  if (scope.std_function) check_std_function(scan);
  if (scope.unseeded_rng) check_unseeded_rng(scan);

  report_suppression_problems(scan);

  std::sort(scan.findings.begin(), scan.findings.end(),
            [](const Finding& a, const Finding& b) {
              return a.line != b.line ? a.line < b.line
                                      : a.message < b.message;
            });
  return std::move(scan.findings);
}

TreeReport scan_tree(const std::string& root) {
  namespace fs = std::filesystem;
  TreeReport report;
  constexpr std::string_view kDirs[] = {"src", "bench", "tests", "examples"};
  constexpr std::string_view kExts[] = {".h", ".cc", ".hpp", ".cpp"};
  std::vector<fs::path> files;
  for (const std::string_view dir : kDirs) {
    const fs::path base = fs::path{root} / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator{base}) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (std::find(std::begin(kExts), std::end(kExts), ext) ==
          std::end(kExts)) {
        continue;
      }
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& file : files) {
    std::ifstream in{file, std::ios::binary};
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string content = buf.str();
    const std::string rel =
        fs::relative(file, fs::path{root}).generic_string();
    std::vector<Finding> findings = scan_source(rel, content);
    report.findings.insert(report.findings.end(),
                           std::make_move_iterator(findings.begin()),
                           std::make_move_iterator(findings.end()));
    ++report.files_scanned;
  }
  return report;
}

std::string format_findings(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out.append(f.file);
    out.push_back(':');
    out.append(std::to_string(f.line));
    out.append(": ");
    out.append(rule_name(f.rule));
    out.append(": ");
    out.append(f.message);
    out.push_back('\n');
  }
  return out;
}

}  // namespace lazyeye::lint
