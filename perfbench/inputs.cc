// Query text handling and the generated, recordable inputs of each
// workload: the SQL subset reader the oracle uses, outward snapping to the
// split grid, SQL rendering, the request streams and their file format.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

#include "bench.h"
#include "common/string_util.h"

namespace perfbench {

using autocat::Result;
using autocat::Status;

const std::map<std::string, double>& SplitIntervals() {
  static const auto* intervals = new std::map<std::string, double>{
      {"price", 5000},     {"squarefootage", 100}, {"yearbuilt", 5},
      {"bedroomcount", 1}, {"bathcount", 1},
  };
  return *intervals;
}

namespace {

struct Token {
  enum Kind { kWord, kNumber, kString, kSymbol, kEnd } kind = kEnd;
  std::string text;
  double number = 0;
};

Result<std::vector<Token>> Tokenize(const std::string& sql) {
  std::vector<Token> out;
  size_t i = 0;
  while (i < sql.size()) {
    const char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
    } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < sql.size() &&
             (std::isalnum(static_cast<unsigned char>(sql[j])) ||
              sql[j] == '_')) {
        ++j;
      }
      out.push_back({Token::kWord, autocat::ToLower(sql.substr(i, j - i)), 0});
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
               c == '.') {
      size_t used = 0;
      double v = 0;
      try {
        v = std::stod(sql.substr(i), &used);
      } catch (...) {
        return Status::ParseError("bad number in: " + sql);
      }
      out.push_back({Token::kNumber, sql.substr(i, used), v});
      i += used;
    } else if (c == '\'') {
      std::string s;
      size_t j = i + 1;
      for (;;) {
        if (j >= sql.size()) {
          return Status::ParseError("unterminated string in: " + sql);
        }
        if (sql[j] == '\'') {
          if (j + 1 < sql.size() && sql[j + 1] == '\'') {
            s += '\'';
            j += 2;
            continue;
          }
          break;
        }
        s += sql[j++];
      }
      out.push_back({Token::kString, s, 0});
      i = j + 1;
    } else if ((c == '<' || c == '>') && i + 1 < sql.size() &&
               sql[i + 1] == '=') {
      out.push_back({Token::kSymbol, sql.substr(i, 2), 0});
      i += 2;
    } else if (std::string("(),;=<>*").find(c) != std::string::npos) {
      out.push_back({Token::kSymbol, std::string(1, c), 0});
      ++i;
    } else {
      return Status::ParseError("unexpected character in: " + sql);
    }
  }
  out.push_back({Token::kEnd, "", 0});
  return out;
}

// Folds `c` into `spec`, intersecting with an earlier condition on the
// same attribute.
void AddCondition(QuerySpec* spec, Condition c) {
  for (Condition& have : spec->conditions) {
    if (have.attribute != c.attribute) {
      continue;
    }
    if (have.is_set) {
      std::vector<std::string> kept;
      for (const std::string& s : have.strings) {
        if (std::find(c.strings.begin(), c.strings.end(), s) !=
            c.strings.end()) {
          kept.push_back(s);
        }
      }
      have.strings = std::move(kept);
      return;
    }
    if (c.lo > have.lo || (c.lo == have.lo && !c.lo_inclusive)) {
      have.lo = c.lo;
      have.lo_inclusive = c.lo_inclusive;
    }
    if (c.hi < have.hi || (c.hi == have.hi && !c.hi_inclusive)) {
      have.hi = c.hi;
      have.hi_inclusive = c.hi_inclusive;
    }
    return;
  }
  spec->conditions.push_back(std::move(c));
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    out += c;
    if (c == '\'') {
      out += '\'';
    }
  }
  return out + "'";
}

}  // namespace

Result<QuerySpec> ParseSpec(const std::string& sql) {
  AUTOCAT_ASSIGN_OR_RETURN(const std::vector<Token> tokens, Tokenize(sql));
  size_t p = 0;
  const auto expect = [&](const std::string& text) -> Status {
    if (tokens[p].text != text ||
        (tokens[p].kind != Token::kWord && tokens[p].kind != Token::kSymbol)) {
      return Status::ParseError("expected '" + text + "' in: " + sql);
    }
    ++p;
    return Status::OK();
  };
  const auto number = [&]() -> Result<double> {
    if (tokens[p].kind != Token::kNumber) {
      return Status::ParseError("expected a number in: " + sql);
    }
    return tokens[p++].number;
  };
  AUTOCAT_RETURN_IF_ERROR(expect("select"));
  AUTOCAT_RETURN_IF_ERROR(expect("*"));
  AUTOCAT_RETURN_IF_ERROR(expect("from"));
  if (tokens[p].kind != Token::kWord) {
    return Status::ParseError("expected a table in: " + sql);
  }
  ++p;
  QuerySpec spec;
  if (tokens[p].kind == Token::kEnd) {
    return spec;
  }
  AUTOCAT_RETURN_IF_ERROR(expect("where"));
  for (;;) {
    if (tokens[p].kind != Token::kWord) {
      return Status::ParseError("expected a column in: " + sql);
    }
    Condition c;
    c.attribute = tokens[p++].text;
    const std::string op = tokens[p].text;
    ++p;
    if (op == "in" || (op == "=" && tokens[p].kind == Token::kString)) {
      c.is_set = true;
      if (op == "in") {
        AUTOCAT_RETURN_IF_ERROR(expect("("));
        for (;;) {
          if (tokens[p].kind != Token::kString) {
            return Status::ParseError("expected a string in: " + sql);
          }
          c.strings.push_back(tokens[p++].text);
          if (tokens[p].text == ")") {
            ++p;
            break;
          }
          AUTOCAT_RETURN_IF_ERROR(expect(","));
        }
      } else {
        c.strings.push_back(tokens[p++].text);
      }
      std::sort(c.strings.begin(), c.strings.end());
      c.strings.erase(std::unique(c.strings.begin(), c.strings.end()),
                      c.strings.end());
    } else if (op == "between") {
      AUTOCAT_ASSIGN_OR_RETURN(c.lo, number());
      AUTOCAT_RETURN_IF_ERROR(expect("and"));
      AUTOCAT_ASSIGN_OR_RETURN(c.hi, number());
    } else if (op == "=" || op == "<" || op == "<=" || op == ">" ||
               op == ">=") {
      AUTOCAT_ASSIGN_OR_RETURN(const double v, number());
      if (op == "=" || op[0] == '>') {
        c.lo = v;
        c.lo_inclusive = op != ">";
      }
      if (op == "=" || op[0] == '<') {
        c.hi = v;
        c.hi_inclusive = op != "<";
      }
    } else {
      return Status::ParseError("unsupported operator '" + op + "' in: " +
                                sql);
    }
    AddCondition(&spec, std::move(c));
    if (tokens[p].kind == Token::kEnd || tokens[p].text == ";") {
      break;
    }
    AUTOCAT_RETURN_IF_ERROR(expect("and"));
  }
  return spec;
}

QuerySpec Snapped(const QuerySpec& spec) {
  QuerySpec out = spec;
  for (Condition& c : out.conditions) {
    if (c.is_set) {
      continue;
    }
    const auto it = SplitIntervals().find(c.attribute);
    if (it == SplitIntervals().end()) {
      continue;
    }
    const double w = it->second;
    if (std::isfinite(c.lo)) {
      c.lo = std::floor(c.lo / w) * w;
      c.lo_inclusive = true;
    }
    if (std::isfinite(c.hi)) {
      c.hi = std::ceil(c.hi / w) * w;
      c.hi_inclusive = true;
    }
  }
  return out;
}

std::string SpecKey(const QuerySpec& snapped) {
  std::vector<std::string> parts;
  for (const Condition& c : snapped.conditions) {
    std::string part = c.attribute;
    if (c.is_set) {
      part += "{";
      for (const std::string& s : c.strings) {
        part += Quote(s) + ",";
      }
      part += "}";
    } else {
      part += c.lo_inclusive ? "[" : "(";
      part += FormatNumber(c.lo);
      part += ",";
      part += FormatNumber(c.hi);
      part += c.hi_inclusive ? "]" : ")";
    }
    parts.push_back(std::move(part));
  }
  std::sort(parts.begin(), parts.end());
  std::string key;
  for (const std::string& part : parts) {
    key += part + ";";
  }
  return key;
}

std::string RenderSql(const QuerySpec& spec) {
  std::string sql = "SELECT * FROM ListProperty";
  bool first = true;
  for (const Condition& c : spec.conditions) {
    sql += first ? " WHERE " : " AND ";
    first = false;
    if (c.is_set) {
      if (c.strings.size() == 1) {
        sql += c.attribute + " = " + Quote(c.strings[0]);
        continue;
      }
      sql += c.attribute + " IN (";
      for (size_t i = 0; i < c.strings.size(); ++i) {
        sql += (i > 0 ? ", " : "") + Quote(c.strings[i]);
      }
      sql += ")";
    } else if (std::isfinite(c.lo) && std::isfinite(c.hi) && c.lo_inclusive &&
               c.hi_inclusive) {
      sql += c.attribute + " BETWEEN " + FormatNumber(c.lo) + " AND " +
             FormatNumber(c.hi);
    } else {
      std::string both;
      if (std::isfinite(c.lo)) {
        both = c.attribute + (c.lo_inclusive ? " >= " : " > ") +
               FormatNumber(c.lo);
      }
      if (std::isfinite(c.hi)) {
        both += (both.empty() ? "" : " AND ") + c.attribute +
                (c.hi_inclusive ? " <= " : " < ") + FormatNumber(c.hi);
      }
      sql += both;
    }
  }
  return sql;
}

std::vector<std::string> CandidateAttributes(
    const std::vector<std::string>& log_sql, double threshold) {
  std::map<std::string, size_t> uses;
  size_t usable = 0;
  for (const std::string& sql : log_sql) {
    const Result<QuerySpec> spec = ParseSpec(sql);
    if (!spec.ok()) {
      continue;
    }
    ++usable;
    for (const Condition& c : spec->conditions) {
      ++uses[c.attribute];
    }
  }
  std::vector<std::string> out;
  for (const auto& [attribute, n] : uses) {
    if (usable > 0 && static_cast<double>(n) >=
                          threshold * static_cast<double>(usable)) {
      out.push_back(attribute);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Record / replay

Status WriteInputs(const Inputs& in, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot write " + path);
  }
  out << "perfbench-inputs 1\n"
      << "workload " << in.workload << "\n"
      << "seed " << in.seed << "\n"
      << "table_rows " << in.table_rows << "\n"
      << "table_seed " << in.table_seed << "\n"
      << "store " << (in.store ? 1 : 0) << "\n"
      << "sort_by " << (in.sort_by.empty() ? "-" : in.sort_by) << "\n"
      << "log_queries " << in.log_queries << "\n"
      << "log_seed " << in.log_seed << "\n"
      << "clients " << in.clients << "\n"
      << "refresh_every " << in.refresh_every << "\n"
      << "round " << in.round << "\n"
      << "distinct " << (in.distinct ? 1 : 0) << "\n"
      << "stream " << in.stream.size() << "\n";
  for (const std::string& sql : in.stream) {
    out << sql << "\n";
  }
  out.flush();
  if (!out) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

Result<Inputs> ReadInputs(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return Status::IOError("cannot read " + path);
  }
  std::string line;
  if (!std::getline(file, line) || line != "perfbench-inputs 1") {
    return Status::ParseError(path + ": not a recorded input stream");
  }
  Inputs in;
  std::map<std::string, std::string> fields;
  const char* const kKeys[] = {"workload",    "seed",        "table_rows",
                               "table_seed",  "store",       "sort_by",
                               "log_queries", "log_seed",    "clients",
                               "refresh_every", "round",     "distinct",
                               "stream"};
  for (const char* key : kKeys) {
    if (!std::getline(file, line)) {
      return Status::ParseError(path + ": truncated header");
    }
    const size_t space = line.find(' ');
    if (space == std::string::npos || line.substr(0, space) != key) {
      return Status::ParseError(path + ": expected '" + key + "'");
    }
    fields[key] = line.substr(space + 1);
  }
  try {
    in.workload = fields["workload"];
    in.seed = std::stoull(fields["seed"]);
    in.table_rows = std::stoull(fields["table_rows"]);
    in.table_seed = std::stoull(fields["table_seed"]);
    in.store = fields["store"] == "1";
    in.sort_by = fields["sort_by"] == "-" ? "" : fields["sort_by"];
    in.log_queries = std::stoull(fields["log_queries"]);
    in.log_seed = std::stoull(fields["log_seed"]);
    in.clients = std::stoull(fields["clients"]);
    in.refresh_every = std::stoull(fields["refresh_every"]);
    in.round = std::stoull(fields["round"]);
    in.distinct = fields["distinct"] == "1";
    const size_t n = std::stoull(fields["stream"]);
    for (size_t i = 0; i < n; ++i) {
      if (!std::getline(file, line)) {
        return Status::ParseError(path + ": stream ends early");
      }
      in.stream.push_back(line);
    }
  } catch (...) {
    return Status::ParseError(path + ": malformed header value");
  }
  if (in.clients == 0 || in.round == 0 || in.stream.empty()) {
    return Status::ParseError(path + ": empty stream or zero clients");
  }
  return in;
}

}  // namespace perfbench
