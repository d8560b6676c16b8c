#include "db/tuple_io.h"

#include <cctype>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/string_util.h"

namespace rescq {

namespace {

std::string LineError(const std::string& origin, int lineno,
                      const std::string& message) {
  std::ostringstream out;
  out << origin << ":" << lineno << ": " << message;
  return out.str();
}

}  // namespace

bool ParseFactLine(std::string_view line, std::string* relation,
                   std::vector<std::string>* constants, std::string* error) {
  line = Trim(line);
  if (line.empty()) {
    *error = "expected a single fact like R(a,b)";
    return false;
  }
  size_t open = line.find('(');
  size_t close = line.rfind(')');
  if (open == std::string_view::npos || close != line.size() - 1 ||
      close < open) {
    *error = "expected a single fact like R(a,b)";
    return false;
  }
  *relation = std::string(Trim(line.substr(0, open)));
  if (relation->empty() ||
      !std::isupper(static_cast<unsigned char>((*relation)[0]))) {
    *error = "relation name must start upper-case";
    return false;
  }
  constants->clear();
  // Each comma-separated piece is a view into the line: only the kept
  // constant is copied.
  std::string_view rest = line.substr(open + 1, close - open - 1);
  for (;;) {
    const size_t comma = rest.find(',');
    const std::string_view constant = Trim(rest.substr(0, comma));
    if (constant.empty() ||
        constant.find_first_of("() \t") != std::string_view::npos) {
      *error = "bad constant '" + std::string(constant) + "' in fact";
      return false;
    }
    constants->emplace_back(constant);
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  return true;
}

bool AddFactChecked(Database* db, const std::string& relation,
                    const std::vector<std::string>& constants,
                    std::string* error) {
  if (relation.empty() || constants.empty()) {
    *error = "fact with an empty relation or no constants";
    return false;
  }
  int id = db->RelationId(relation);
  if (id >= 0 &&
      db->relation_arity(id) != static_cast<int>(constants.size())) {
    std::ostringstream msg;
    msg << "relation '" << relation << "' used with arity "
        << constants.size() << ", but earlier facts have arity "
        << db->relation_arity(id);
    *error = msg.str();
    return false;
  }
  std::vector<Value> row;
  row.reserve(constants.size());
  for (const std::string& constant : constants) {
    row.push_back(db->Intern(constant));
  }
  db->AddTuple(relation, row);
  return true;
}

bool ParseUpdateLine(std::string_view line, Update* update,
                     std::string* error) {
  line = Trim(line);
  if (line.empty() || (line[0] != '+' && line[0] != '-')) {
    *error = "expected '+ R(a,b)' or '- R(a,b)'";
    return false;
  }
  update->kind = line[0] == '+' ? UpdateKind::kInsert : UpdateKind::kDelete;
  return ParseFactLine(line.substr(1), &update->relation, &update->constants,
                       error);
}

bool ReadTuples(std::istream& in, const std::string& origin, Database* db,
                std::string* error) {
  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    std::string_view line = Trim(raw);
    size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = Trim(line.substr(0, hash));
    if (line.empty()) continue;

    std::string relation, message;
    std::vector<std::string> constants;
    // Parse, then validate arity before insertion: the input is
    // untrusted, and Database treats an arity mismatch as a programmer
    // error (it aborts).
    if (!ParseFactLine(line, &relation, &constants, &message) ||
        !AddFactChecked(db, relation, constants, &message)) {
      *error = LineError(origin, lineno, message);
      return false;
    }
  }
  return true;
}

bool LoadTupleFile(const std::string& path, Database* db, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open tuple file '" + path + "'";
    return false;
  }
  return ReadTuples(in, path, db, error);
}

void WriteTuples(const Database& db, std::ostream& out,
                 const std::string& header) {
  if (!header.empty()) {
    for (const std::string& line : Split(header, '\n')) {
      out << "# " << line << "\n";
    }
  }
  for (int rel = 0; rel < db.num_relations(); ++rel) {
    for (TupleId id : db.ActiveTuples(rel)) {
      out << db.relation_name(rel) << "(";
      RowView row = db.Row(id);
      for (size_t i = 0; i < row.size(); ++i) {
        if (i > 0) out << ", ";
        out << db.ValueName(row[i]);
      }
      out << ")\n";
    }
  }
}

bool SaveTupleFile(const Database& db, const std::string& path,
                   const std::string& header, std::string* error) {
  std::ofstream out(path);
  if (!out) {
    *error = "cannot create tuple file '" + path + "'";
    return false;
  }
  WriteTuples(db, out, header);
  return true;
}

bool ReadUpdates(std::istream& in, const std::string& origin, UpdateLog* log,
                 std::string* error) {
  std::string raw;
  int lineno = 0;
  // Arity per relation across the whole log, so a self-inconsistent file
  // is rejected at read time with a line number (a mismatch against a
  // concrete database is ValidateUpdateLog's job).
  std::unordered_map<std::string, size_t> arity;
  while (std::getline(in, raw)) {
    ++lineno;
    std::string_view line = Trim(raw);
    size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = Trim(line.substr(0, hash));
    if (line.empty()) continue;

    if (StartsWith(line, "epoch")) {
      // A trailing label is ignored ("epoch 3", "epoch warm-up"); only
      // a fact smuggled onto the marker line is rejected.
      std::string_view rest = Trim(line.substr(5));
      if (rest.find('(') != std::string_view::npos) {
        *error = LineError(origin, lineno,
                           "epoch marker takes at most a label, not a fact");
        return false;
      }
      log->epochs.emplace_back();
      continue;
    }

    Update u;
    std::string message;
    if (!ParseUpdateLine(line, &u, &message)) {
      *error = LineError(
          origin, lineno,
          line[0] != '+' && line[0] != '-'
              ? "expected '+ R(a,b)', '- R(a,b)', or an 'epoch' marker"
              : message);
      return false;
    }
    auto [it, inserted] = arity.emplace(u.relation, u.constants.size());
    if (!inserted && it->second != u.constants.size()) {
      std::ostringstream msg;
      msg << "relation '" << u.relation << "' used with arity "
          << u.constants.size() << ", but earlier updates have arity "
          << it->second;
      *error = LineError(origin, lineno, msg.str());
      return false;
    }
    if (log->epochs.empty()) log->epochs.emplace_back();
    log->epochs.back().updates.push_back(std::move(u));
  }
  return true;
}

bool LoadUpdateFile(const std::string& path, UpdateLog* log,
                    std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open update file '" + path + "'";
    return false;
  }
  return ReadUpdates(in, path, log, error);
}

void WriteUpdates(const UpdateLog& log, std::ostream& out,
                  const std::string& header) {
  if (!header.empty()) {
    for (const std::string& line : Split(header, '\n')) {
      out << "# " << line << "\n";
    }
  }
  for (size_t e = 0; e < log.epochs.size(); ++e) {
    out << "epoch " << (e + 1) << "\n";
    for (const Update& u : log.epochs[e].updates) {
      out << (u.kind == UpdateKind::kInsert ? "+ " : "- ") << u.relation
          << "(";
      for (size_t i = 0; i < u.constants.size(); ++i) {
        if (i > 0) out << ", ";
        out << u.constants[i];
      }
      out << ")\n";
    }
  }
}

bool SaveUpdateFile(const UpdateLog& log, const std::string& path,
                    const std::string& header, std::string* error) {
  std::ofstream out(path);
  if (!out) {
    *error = "cannot create update file '" + path + "'";
    return false;
  }
  WriteUpdates(log, out, header);
  return true;
}

}  // namespace rescq
