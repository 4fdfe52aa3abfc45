// The nf_lint rules (rules_internal.hpp).  Each rule is a pure function of
// the lexed Project; docs/static_analysis.md documents every rule's
// rationale, scope, and suppression story.

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "nf_lint/rules_internal.hpp"

namespace neurfill::lint {

namespace {

// ---------------------------------------------------------------------------
// Token helpers

bool is_id(const Token& t, const char* text) {
  return t.kind == TokKind::kIdentifier && t.text == text;
}
bool is_p(const Token& t, char c) {
  return t.kind == TokKind::kPunct && t.text.size() == 1 && t.text[0] == c;
}
bool any_id(const Token& t) { return t.kind == TokKind::kIdentifier; }

/// True when tokens[i] is immediately preceded by "::" (tokens are single
/// punctuation characters, so "::" is two ':' tokens).
bool after_scope_op(const std::vector<Token>& t, std::size_t i) {
  return i >= 2 && is_p(t[i - 1], ':') && is_p(t[i - 2], ':');
}

/// True when tokens[i] is `qual :: <tokens[i]>`.
bool qualified_by(const std::vector<Token>& t, std::size_t i,
                  const char* qual) {
  return i >= 3 && after_scope_op(t, i) && is_id(t[i - 3], qual);
}

/// True when tokens[i] is a member access (x.f or x->f), so a bare-name
/// match must not fire.
bool member_access(const std::vector<Token>& t, std::size_t i) {
  if (i >= 1 && is_p(t[i - 1], '.')) return true;
  return i >= 2 && is_p(t[i - 1], '>') && is_p(t[i - 2], '-');
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}
bool ends_with(const std::string& s, const char* suffix) {
  const std::string suf(suffix);
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

/// Index of the ')' matching the '(' at `open`, or npos.
std::size_t matching_paren(const std::vector<Token>& t, std::size_t open) {
  std::size_t depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (is_p(t[i], '(')) ++depth;
    if (is_p(t[i], ')') && --depth == 0) return i;
  }
  return std::string::npos;
}

void add(std::vector<Finding>& out, const char* rule, const SourceFile& f,
         int line, std::string message) {
  out.push_back({rule, f.rel_path, line, std::move(message)});
}

// ---------------------------------------------------------------------------
// Rule: determinism
//
// The numeric subsystems promise bitwise-identical results at any thread
// count (docs/runtime.md).  Wall-clock seeds, ambient randomness, raw
// threads outside the deterministic pool, and hash-ordered containers all
// break that promise silently, so they are banned outright in numeric code;
// src/runtime (the pool itself) and src/common/rng.* (the seeded RNG) are
// the sanctioned homes for the exceptions.

bool numeric_scope(const std::string& rel) {
  // src/nn/backend and src/nn/infer are subsumed by src/nn/, but they are
  // named explicitly: the backend primitives and the compiled inference
  // session carry the bitwise-at-any-thread-count contract directly
  // (docs/inference.md), and the scope list is the place that says so.
  static const char* kPrefixes[] = {"src/cmp/",  "src/nn/",     "src/opt/",
                                    "src/nn/backend/", "src/nn/infer/",
                                    "src/fill/", "src/surrogate/",
                                    "src/geom/", "src/layout/",
                                    "src/fullchip/", "src/serve/"};
  for (const char* p : kPrefixes)
    if (starts_with(rel, p)) return true;
  return starts_with(rel, "src/common/fft");
}

void rule_determinism(const Project& proj, std::vector<Finding>& out) {
  static const char* kBannedCalls[] = {"rand",  "srand",        "time",
                                       "clock", "gettimeofday", "timespec_get"};
  static const char* kBannedTypes[] = {
      "random_device", "mt19937",        "mt19937_64",
      "unordered_map", "unordered_set",  "unordered_multimap",
      "unordered_multiset"};
  static const char* kStdOnly[] = {"thread", "jthread", "async"};
  for (const SourceFile& f : proj.files) {
    if (!numeric_scope(f.rel_path)) continue;
    const auto& t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (!any_id(t[i])) continue;
      for (const char* name : kBannedCalls) {
        if (t[i].text == name && i + 1 < t.size() && is_p(t[i + 1], '(') &&
            !member_access(t, i) &&
            (!after_scope_op(t, i) || qualified_by(t, i, "std"))) {
          add(out, "determinism", f, t[i].line,
              "call to '" + t[i].text +
                  "' in a numeric subsystem breaks run-to-run determinism; "
                  "seed neurfill::Rng explicitly instead");
        }
      }
      for (const char* name : kBannedTypes) {
        if (t[i].text == name) {
          add(out, "determinism", f, t[i].line,
              std::string("'") + name +
                  "' in a numeric subsystem: hash/entropy ordering is not "
                  "deterministic; use ordered containers or neurfill::Rng");
        }
      }
      for (const char* name : kStdOnly) {
        if (t[i].text == name && qualified_by(t, i, "std")) {
          add(out, "determinism", f, t[i].line,
              "raw 'std::" + t[i].text +
                  "' in a numeric subsystem bypasses the deterministic "
                  "runtime pool; use runtime::parallel_for/parallel_reduce");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: infer-no-autograd
//
// src/nn/infer is the network engine: a compiled graph built from a flat
// parameter set that runs pure Backend primitives, forward and VJP (input
// and parameter adjoints).  src/surrogate/infer.* is its surrogate layer
// (extraction, chaining and their adjoints).  Any
// autograd API appearing there — the tape-building Module::forward,
// TensorImpl, or the grad accessors — reintroduces per-op allocation and
// tape state (shared parameter grad buffers) behind the session's back,
// which is exactly the cost the path exists to remove.  The rule bans the
// identifiers outright (comments are not tokenized, so prose may still
// explain the relationship to the autograd path); adjoint buffers there are
// named adj_* / d*, never grad.

void rule_infer_no_autograd(const Project& proj, std::vector<Finding>& out) {
  static const char* kBanned[] = {
      "forward",        "backward",  "backward_fn", "requires_grad",
      "set_requires_grad", "grad",   "grad_vector", "has_grad",
      "ensure_grad",    "zero_grad", "TensorImpl"};
  for (const SourceFile& f : proj.files) {
    if (!starts_with(f.rel_path, "src/nn/infer/") &&
        !starts_with(f.rel_path, "src/surrogate/infer."))
      continue;
    const auto& t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (!any_id(t[i])) continue;
      for (const char* name : kBanned) {
        if (t[i].text == name) {
          add(out, "infer-no-autograd", f, t[i].line,
              "'" + t[i].text +
                  "' is autograd tape API; the inference path (src/nn/infer, "
                  "src/surrogate/infer.*) is tape-free — go through the "
                  "Backend primitives and session VJP instead");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: expected-discard
//
// Part 1: every function returning nf::Expected<T> must carry
// [[nodiscard]] — the class-level attribute already warns at call sites,
// but the function-level attribute survives wrappers (auto&&, macros) and
// documents the contract at the declaration.
// Part 2: a call to an Expected-returning function whose result is a bare
// expression statement silently drops the error channel; every such call
// site is flagged (cast through `(void)` to discard deliberately).

struct ExpectedFn {
  std::string name;
  std::string qualifier;  ///< enclosing/explicit class name, "" for free fns
};

/// Member names too generic to attribute from a call site (`file.open(...)`
/// is std::ofstream, not CheckpointReader).  For these, only explicitly
/// qualified calls (`CheckpointReader::open(...)`) are checked for discard.
bool too_common_for_member_match(const std::string& name) {
  static const std::set<std::string> kCommon = {
      "open", "close", "read", "write", "get", "set", "clear", "reset",
      "load", "save", "run",   "init"};
  return kCommon.count(name) > 0;
}

/// Walks the brace structure of one file, classifying each '{' as a scope
/// brace (namespace/class body — declarations continue inside) or a body
/// brace (function body, initializer, lambda).  Scope braces record the
/// class name when one is present.
class ScopeTracker {
 public:
  explicit ScopeTracker(const std::vector<Token>& tokens) : t_(tokens) {}

  /// Call for every token index, in order, *before* inspecting it.
  void observe(std::size_t i) {
    if (is_p(t_[i], '{')) {
      stack_.push_back(classify(i));
      if (!stack_.back().is_scope) ++body_depth_;
    } else if (is_p(t_[i], '}')) {
      if (!stack_.empty()) {
        if (!stack_.back().is_scope) --body_depth_;
        stack_.pop_back();
      }
    }
  }

  /// True at namespace/class scope — where declarations live.
  bool at_decl_scope() const { return body_depth_ == 0; }

  /// Innermost enclosing class/struct name, "" when none.
  std::string enclosing_class() const {
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it)
      if (it->is_scope && !it->name.empty()) return it->name;
    return "";
  }

 private:
  struct Entry {
    bool is_scope = false;
    std::string name;  ///< class/struct name for scope entries
  };

  /// A '{' opens a scope when the tokens since the previous ';'/'{'/'}'
  /// start a namespace/class/struct/union/enum and the window is not an
  /// initializer (contains '=') or a function signature with a class-typed
  /// return (the keyword after '(' never classifies).
  Entry classify(std::size_t open) const {
    if (body_depth_ > 0) return {false, ""};
    Entry e;
    std::size_t begin = 0;
    for (std::size_t j = open; j-- > 0;) {
      if (is_p(t_[j], ';') || is_p(t_[j], '{') || is_p(t_[j], '}')) {
        begin = j + 1;
        break;
      }
    }
    bool saw_eq = false, saw_paren = false;
    std::size_t kw = std::string::npos;
    for (std::size_t j = begin; j < open; ++j) {
      if (is_p(t_[j], '=')) saw_eq = true;
      if (is_p(t_[j], '(')) saw_paren = true;
      if (kw == std::string::npos &&
          (is_id(t_[j], "namespace") || is_id(t_[j], "class") ||
           is_id(t_[j], "struct") || is_id(t_[j], "union") ||
           is_id(t_[j], "enum")))
        kw = j;
    }
    if (kw != std::string::npos && !saw_eq && !saw_paren) {
      e.is_scope = true;
      // namespace N { / class C final : Base { — name is the identifier
      // right after the keyword (skipping "class" of "enum class").
      std::size_t j = kw + 1;
      if (j < open && is_id(t_[j], "class")) ++j;
      if (j < open && any_id(t_[j]) && !is_id(t_[kw], "namespace"))
        e.name = t_[j].text;
    }
    return e;
  }

  const std::vector<Token>& t_;
  std::vector<Entry> stack_;
  int body_depth_ = 0;
};

/// Matches `[nf::|neurfill::] Expected < ... >` starting at token i (the
/// `Expected`).  Returns the index one past the closing '>', or npos.
std::size_t match_expected_type(const std::vector<Token>& t, std::size_t i) {
  if (!is_id(t[i], "Expected")) return std::string::npos;
  if (after_scope_op(t, i) && !qualified_by(t, i, "nf") &&
      !qualified_by(t, i, "neurfill"))
    return std::string::npos;
  if (i + 1 >= t.size() || !is_p(t[i + 1], '<')) return std::string::npos;
  std::size_t depth = 0;
  for (std::size_t j = i + 1; j < t.size(); ++j) {
    if (is_p(t[j], '<')) ++depth;
    if (is_p(t[j], '>') && --depth == 0) return j + 1;
    if (is_p(t[j], ';') || is_p(t[j], '{')) break;  // malformed
  }
  return std::string::npos;
}

/// True when the declaration-specifier run ending just before `type_begin`
/// contains a [[...nodiscard...]] attribute.
bool has_nodiscard_before(const std::vector<Token>& t, std::size_t type_begin) {
  std::size_t j = type_begin;
  for (int hops = 0; j > 0 && hops < 16; ++hops) {
    const Token& p = t[j - 1];
    if (is_id(p, "static") || is_id(p, "inline") || is_id(p, "constexpr") ||
        is_id(p, "extern") || is_id(p, "friend") || is_id(p, "virtual") ||
        is_id(p, "explicit") || is_id(p, "nodiscard") || is_p(p, '[') ||
        is_p(p, ']') || (p.kind == TokKind::kString)) {
      if (is_id(p, "nodiscard")) return true;
      --j;
      continue;
    }
    break;
  }
  return false;
}

void collect_expected_fns(const Project& proj, std::vector<ExpectedFn>* fns,
                          std::vector<Finding>* out) {
  for (const SourceFile& f : proj.files) {
    if (!starts_with(f.rel_path, "src/") && !starts_with(f.rel_path, "tools/"))
      continue;
    const auto& t = f.tokens;
    ScopeTracker scope(t);
    for (std::size_t i = 0; i < t.size(); ++i) {
      scope.observe(i);
      if (!scope.at_decl_scope()) continue;
      const std::size_t after = match_expected_type(t, i);
      if (after == std::string::npos) continue;
      // Name chain: ident (:: ident)* then '('.
      std::size_t j = after;
      std::string qualifier = scope.enclosing_class();
      std::string name;
      while (j < t.size() && any_id(t[j])) {
        name = t[j].text;
        if (j + 2 < t.size() && is_p(t[j + 1], ':') && is_p(t[j + 2], ':')) {
          qualifier = t[j].text;  // out-of-line member definition
          j += 3;
          continue;
        }
        ++j;
        break;
      }
      if (name.empty() || j >= t.size() || !is_p(t[j], '(')) continue;
      const std::size_t type_begin =
          qualified_by(t, i, "nf") || qualified_by(t, i, "neurfill") ? i - 3
                                                                     : i;
      if (out && !has_nodiscard_before(t, type_begin)) {
        out->push_back({"expected-discard", f.rel_path, t[i].line,
                        "function '" + name +
                            "' returns nf::Expected but is not declared "
                            "[[nodiscard]]"});
      }
      fns->push_back({name, qualifier});
    }
  }
}

void rule_expected_discard(const Project& proj, std::vector<Finding>& out) {
  std::vector<ExpectedFn> fns;
  collect_expected_fns(proj, &fns, &out);
  std::set<std::string> free_or_distinct;  // matchable by bare/member call
  std::map<std::string, std::set<std::string>> qualified;  // name -> classes
  for (const ExpectedFn& fn : fns) {
    if (!fn.qualifier.empty()) qualified[fn.name].insert(fn.qualifier);
    if (fn.qualifier.empty() || !too_common_for_member_match(fn.name))
      free_or_distinct.insert(fn.name);
  }
  for (const SourceFile& f : proj.files) {
    const auto& t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (!any_id(t[i]) || i + 1 >= t.size() || !is_p(t[i + 1], '(')) continue;
      const std::string& name = t[i].text;
      bool candidate = false;
      if (free_or_distinct.count(name)) {
        candidate = true;
      } else if (qualified.count(name) && i >= 3 && after_scope_op(t, i) &&
                 any_id(t[i - 3]) && qualified[name].count(t[i - 3].text)) {
        candidate = true;  // Class::common_name(...) — explicit receiver
      }
      if (!candidate) continue;
      // Walk back over the qualifier/receiver chain to the statement start.
      std::size_t j = i;
      while (j >= 2) {
        if (is_p(t[j - 1], '.') && j >= 2 && any_id(t[j - 2])) {
          j -= 2;
        } else if (j >= 3 && is_p(t[j - 1], '>') && is_p(t[j - 2], '-') &&
                   any_id(t[j - 3])) {
          j -= 3;
        } else if (j >= 3 && after_scope_op(t, j) && any_id(t[j - 3])) {
          j -= 3;
        } else {
          break;
        }
      }
      bool stmt_start = j == 0;
      if (!stmt_start && (is_p(t[j - 1], ';') || is_p(t[j - 1], '{') ||
                          is_p(t[j - 1], '}'))) {
        stmt_start = true;
      }
      if (!stmt_start && is_p(t[j - 1], ')')) {
        // `if (...) call();` discards too — but `(void) call();` is the
        // sanctioned explicit discard.
        const bool void_cast = j >= 3 && is_id(t[j - 2], "void") &&
                               is_p(t[j - 3], '(');
        stmt_start = !void_cast;
      }
      if (!stmt_start) continue;
      const std::size_t close = matching_paren(t, i + 1);
      if (close == std::string::npos || close + 1 >= t.size()) continue;
      if (!is_p(t[close + 1], ';')) continue;  // result is consumed
      add(out, "expected-discard", f, t[i].line,
          "result of '" + name +
              "(...)' (nf::Expected) is silently discarded; handle the "
              "error or cast through (void) deliberately");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: fault-catalog
//
// Every NF_FAULT("site") literal must appear in the docs/robustness.md
// fault-site catalog, and every catalogued site must still exist in code —
// the catalog is the operator-facing contract for NEURFILL_FAULTS specs.

void rule_fault_catalog(const Project& proj, std::vector<Finding>& out) {
  std::set<std::string> catalogued;
  for (const CatalogEntry& e : proj.catalog) catalogued.insert(e.site);
  std::set<std::string> in_code;
  for (const SourceFile& f : proj.files) {
    if (!starts_with(f.rel_path, "src/") && !starts_with(f.rel_path, "tools/"))
      continue;
    const auto& t = f.tokens;
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
      if (!is_id(t[i], "NF_FAULT") || !is_p(t[i + 1], '(') ||
          t[i + 2].kind != TokKind::kString)
        continue;
      const std::string& site = t[i + 2].text;
      in_code.insert(site);
      if (!proj.catalog_found) {
        add(out, "fault-catalog", f, t[i].line,
            "NF_FAULT site '" + site + "' found but the catalog '" +
                proj.catalog_rel + "' is missing or has no catalog table");
      } else if (!catalogued.count(site)) {
        add(out, "fault-catalog", f, t[i].line,
            "NF_FAULT site '" + site + "' is not in the fault-site catalog (" +
                proj.catalog_rel + ")");
      }
    }
  }
  if (proj.catalog_found && proj.full_scan) {
    for (const CatalogEntry& e : proj.catalog) {
      if (!in_code.count(e.site)) {
        out.push_back({"fault-catalog", proj.catalog_rel, e.line,
                       "catalogued fault site '" + e.site +
                           "' has no NF_FAULT(\"" + e.site +
                           "\") in the code — remove the stale row or "
                           "restore the site"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: trace-hygiene
//
// Span/counter/gauge names must be single string literals — the obs macros
// cache the registry lookup in a per-site static, and SpanTimer stores the
// `const char*` it is given, so a runtime-built name defeats the cache and
// can dangle.  Span names must be unique across sites (two sites sharing a
// name make the chrome trace and the --metrics span table ambiguous), and
// one name must not be reused across instrument kinds.

struct TraceSite {
  std::string kind;  // "span", "counter", "gauge"
  std::string file;
  int line = 0;
};

void check_name_arg(const SourceFile& f, const std::vector<Token>& t,
                    std::size_t open, const std::string& kind,
                    std::map<std::string, TraceSite>& seen,
                    std::vector<Finding>& out) {
  std::size_t j = open + 1;
  std::string name;
  std::size_t literals = 0;
  while (j < t.size() && t[j].kind == TokKind::kString) {
    name += t[j].text;
    ++literals;
    ++j;
  }
  const int line = t[open].line;
  if (literals == 0 || j >= t.size() ||
      !(is_p(t[j], ',') || is_p(t[j], ')'))) {
    add(out, "trace-hygiene", f, line,
        "trace/metric name for this " + kind +
            " site is not a plain string literal; runtime-built names "
            "defeat the per-site registry cache (and dangle in SpanTimer)");
    return;
  }
  auto it = seen.find(name);
  if (it == seen.end()) {
    seen.emplace(name, TraceSite{kind, f.rel_path, line});
    return;
  }
  if (it->second.kind != kind) {
    add(out, "trace-hygiene", f, line,
        "name '" + name + "' is used both as a " + it->second.kind + " (" +
            it->second.file + ":" + std::to_string(it->second.line) +
            ") and as a " + kind);
  } else if (kind == "span") {
    add(out, "trace-hygiene", f, line,
        "duplicate span name '" + name + "' (also at " + it->second.file +
            ":" + std::to_string(it->second.line) +
            "); span names must be unique per site");
  }
}

void rule_trace_hygiene(const Project& proj, std::vector<Finding>& out) {
  std::map<std::string, TraceSite> seen;
  for (const SourceFile& f : proj.files) {
    const bool in_scope = (starts_with(f.rel_path, "src/") ||
                           starts_with(f.rel_path, "tools/")) &&
                          !starts_with(f.rel_path, "src/obs/");
    if (!in_scope) continue;
    const auto& t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (!any_id(t[i])) continue;
      const std::string& id = t[i].text;
      std::string kind;
      std::size_t open = std::string::npos;
      if ((id == "NF_TRACE_SPAN" || id == "NF_COUNTER_ADD" ||
           id == "NF_GAUGE_SET") &&
          i + 1 < t.size() && is_p(t[i + 1], '(')) {
        kind = id == "NF_TRACE_SPAN"
                   ? "span"
                   : (id == "NF_COUNTER_ADD" ? "counter" : "gauge");
        open = i + 1;
      } else if (id == "SpanTimer" &&
                 (!after_scope_op(t, i) || qualified_by(t, i, "obs")) &&
                 i + 1 < t.size()) {
        // obs::SpanTimer timer("name")  /  obs::SpanTimer("name")
        kind = "span";
        if (is_p(t[i + 1], '(')) open = i + 1;
        else if (any_id(t[i + 1]) && i + 2 < t.size() && is_p(t[i + 2], '('))
          open = i + 2;
      } else if ((id == "span_stat" || id == "counter" || id == "gauge") &&
                 qualified_by(t, i, "obs") && i + 1 < t.size() &&
                 is_p(t[i + 1], '(')) {
        kind = id == "span_stat" ? "span"
                                 : (id == "counter" ? "counter" : "gauge");
        open = i + 1;
      }
      if (open == std::string::npos) continue;
      // SpanTimer qualified as obs::SpanTimer: skip the declaration in
      // trace.hpp (src/obs is already out of scope) and copy/assign
      // deletions — those have no '(' after an identifier + literal shape
      // and fall out naturally via the literal check only when a string
      // argument is plausible; a parameter list like (const SpanTimer&)
      // is flagged nowhere because declarations live in src/obs.
      check_name_arg(f, t, open, kind, seen, out);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: contract-style
//
// Library code (src/) aborts through NF_CHECK, reports through the log
// macros, and returns structured nf::Error values.  assert() silently
// compiles out under NDEBUG, bare abort/exit bypass the contract banner,
// and printf-family output bypasses both the log level gate and every
// caller that expects stderr to stay parseable.

void rule_contract_style(const Project& proj, std::vector<Finding>& out) {
  static const char* kBanned[] = {"assert",  "abort",    "exit",
                                  "_exit",   "_Exit",    "quick_exit",
                                  "printf",  "fprintf",  "vprintf",
                                  "vfprintf", "sprintf", "vsprintf",
                                  "puts",    "fputs",    "putchar",
                                  "fputc",   "perror"};
  for (const SourceFile& f : proj.files) {
    if (!starts_with(f.rel_path, "src/")) continue;
    const auto& t = f.tokens;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (!any_id(t[i]) || !is_p(t[i + 1], '(')) continue;
      if (member_access(t, i)) continue;
      if (after_scope_op(t, i) && !qualified_by(t, i, "std")) continue;
      for (const char* name : kBanned) {
        if (t[i].text == name) {
          add(out, "contract-style", f, t[i].line,
              "'" + t[i].text +
                  "' in library code — use NF_CHECK for contracts, the LOG_* "
                  "macros for output, and nf::Expected for recoverable "
                  "errors");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: pragma-once
//
// Every header must open with `#pragma once` (before any code) so the
// header self-containment target and out-of-order includes stay safe.

void rule_pragma_once(const Project& proj, std::vector<Finding>& out) {
  for (const SourceFile& f : proj.files) {
    if (!ends_with(f.rel_path, ".hpp")) continue;
    const auto& t = f.tokens;
    const bool ok = t.size() >= 3 && is_p(t[0], '#') && is_id(t[1], "pragma") &&
                    is_id(t[2], "once");
    if (!ok)
      add(out, "pragma-once", f, 1,
          "header does not start with '#pragma once'");
  }
}

}  // namespace

const std::vector<RuleEntry>& rule_table() {
  static const std::vector<RuleEntry> kRules = {
      {"determinism",
       "bans wall-clock/entropy/raw-thread/hash-ordered constructs in the "
       "numeric subsystems (bitwise-determinism contract)",
       &rule_determinism},
      {"expected-discard",
       "nf::Expected-returning functions must be [[nodiscard]] and their "
       "results must not be silently dropped",
       &rule_expected_discard},
      {"infer-no-autograd",
       "src/nn/infer and src/surrogate/infer.* must stay free of autograd "
       "tape APIs (Module::forward, TensorImpl, grad accessors)",
       &rule_infer_no_autograd},
      {"fault-catalog",
       "NF_FAULT(\"site\") literals and the docs/robustness.md catalog must "
       "match exactly, in both directions",
       &rule_fault_catalog},
      {"trace-hygiene",
       "trace span / counter / gauge names must be unique, stable string "
       "literals",
       &rule_trace_hygiene},
      {"contract-style",
       "no assert/abort/exit/printf-family in library code; NF_CHECK, LOG_* "
       "and nf::Expected only",
       &rule_contract_style},
      {"pragma-once",
       "every header starts with #pragma once (keeps the header "
       "self-containment target honest)",
       &rule_pragma_once},
  };
  return kRules;
}

}  // namespace neurfill::lint
