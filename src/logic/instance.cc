#include "logic/instance.h"

#include <istream>
#include <ostream>
#include <sstream>

#include "util/table_printer.h"

namespace tdlib {
namespace {

constexpr char kInstanceMagic[] = "tdinst1";

// Below this many tuples the CSR rebuild is cheaper than the bookkeeping to
// avoid it; tails shorter than this never trigger a rebuild on their own.
constexpr std::size_t kMinCompactTail = 64;

// Length-prefixed string ("<len>:<bytes>"): value names are user-supplied
// and may contain whitespace, so token-based IO cannot carry them.
void WriteString(std::ostream& os, const std::string& s) {
  os << s.size() << ':' << s;
}

bool ReadString(std::istream& is, std::string* s) {
  std::size_t len;
  char colon;
  if (!(is >> len) || !is.get(colon) || colon != ':') return false;
  if (len > (1u << 20)) return false;  // corrupt-input guard
  s->resize(len);
  if (len > 0 && !is.read(&(*s)[0], static_cast<std::streamsize>(len))) {
    return false;
  }
  return true;
}

}  // namespace

Instance::Instance(SchemaPtr schema)
    : schema_(std::move(schema)),
      value_names_(schema_->arity()),
      is_null_(schema_->arity()),
      store_(schema_->arity()),
      csr_ids_(schema_->arity()),
      csr_offsets_(schema_->arity(), {0}),
      tail_(schema_->arity()) {}

int Instance::AddValue(int attr, std::string name, bool labeled_null) {
  int id = static_cast<int>(value_names_[attr].size());
  if (name.empty()) {
    name = (labeled_null ? "_n" : "v") + std::to_string(id) + "@" +
           schema_->name(attr);
  }
  value_names_[attr].push_back(std::move(name));
  is_null_[attr].push_back(labeled_null);
  tail_[attr].emplace_back();
  return id;
}

int Instance::InternValue(int attr, const std::string& name) {
  for (std::size_t v = 0; v < value_names_[attr].size(); ++v) {
    if (value_names_[attr][v] == name) return static_cast<int>(v);
  }
  return AddValue(attr, name);
}

int Instance::NullCount() const {
  int n = 0;
  for (const auto& column : is_null_) {
    for (bool b : column) n += b ? 1 : 0;
  }
  return n;
}

bool Instance::FinishInsert(std::pair<int, bool> inserted) {
  auto [id, is_new] = inserted;
  if (!is_new) return false;
  TupleRef t = store_[static_cast<std::size_t>(id)];
  for (int attr = 0; attr < schema_->arity(); ++attr) {
    tail_[attr][t[attr]].push_back(id);
  }
  // Geometric rebuild cadence: merge the tails into the CSR slab once they
  // match the base in size. Total rebuild work over a run is O(n·arity) —
  // amortized O(arity) per insert, O(log n) rebuilds — and it happens here,
  // inside a mutation, so concurrent readers never observe it.
  const std::size_t tail_ids = store_.size() - csr_count_;
  if (tail_ids >= std::max(kMinCompactTail, csr_count_)) CompactIndex();
  return true;
}

void Instance::CompactIndex() {
  const std::size_t n = store_.size();
  if (csr_count_ == n) return;  // tails empty; nothing to merge
  for (int attr = 0; attr < schema_->arity(); ++attr) {
    const int domain = DomainSize(attr);
    std::vector<std::int32_t>& offsets = csr_offsets_[attr];
    std::vector<int>& ids = csr_ids_[attr];
    const int old_domain = static_cast<int>(offsets.size()) - 1;
    std::vector<std::int32_t> merged_offsets(
        static_cast<std::size_t>(domain) + 1, 0);
    std::vector<int> merged_ids(n);
    std::size_t cursor = 0;
    for (int v = 0; v < domain; ++v) {
      merged_offsets[v] = static_cast<std::int32_t>(cursor);
      if (v < old_domain) {
        std::copy(ids.begin() + offsets[v], ids.begin() + offsets[v + 1],
                  merged_ids.begin() + static_cast<std::ptrdiff_t>(cursor));
        cursor += static_cast<std::size_t>(offsets[v + 1] - offsets[v]);
      }
      std::vector<int>& tail = tail_[attr][v];
      std::copy(tail.begin(), tail.end(),
                merged_ids.begin() + static_cast<std::ptrdiff_t>(cursor));
      cursor += tail.size();
      tail.clear();  // keeps capacity: the next batch reuses the allocation
    }
    merged_offsets[domain] = static_cast<std::int32_t>(cursor);
    ids = std::move(merged_ids);
    offsets = std::move(merged_offsets);
  }
  csr_count_ = n;
}

void Instance::Reserve(std::size_t tuples, std::size_t values_per_attr) {
  store_.Reserve(tuples);
  for (int attr = 0; attr < schema_->arity(); ++attr) {
    value_names_[attr].reserve(values_per_attr);
    is_null_[attr].reserve(values_per_attr);
    tail_[attr].reserve(values_per_attr);
    csr_ids_[attr].reserve(tuples);
    csr_offsets_[attr].reserve(values_per_attr + 1);
  }
}

void Instance::Serialize(std::ostream& os) const {
  os << kInstanceMagic << ' ' << schema_->arity() << '\n';
  for (int attr = 0; attr < schema_->arity(); ++attr) {
    os << value_names_[attr].size() << '\n';
    for (std::size_t v = 0; v < value_names_[attr].size(); ++v) {
      os << (is_null_[attr][v] ? 1 : 0) << ' ';
      WriteString(os, value_names_[attr][v]);
      os << '\n';
    }
  }
  store_.Serialize(os);
}

Result<Instance> Instance::Deserialize(SchemaPtr schema, std::istream& is) {
  using R = Result<Instance>;
  auto corrupt = [](const char* what) {
    return R::Error(ErrorCode::kCorrupt, std::string("instance: ") + what);
  };
  std::string magic;
  int arity;
  if (!(is >> magic >> arity)) return corrupt("truncated header");
  if (magic != kInstanceMagic) return corrupt("bad magic");
  if (arity != schema->arity()) return corrupt("arity does not match schema");
  Instance instance(std::move(schema));
  for (int attr = 0; attr < arity; ++attr) {
    std::size_t domain;
    if (!(is >> domain)) return corrupt("truncated domain count");
    for (std::size_t v = 0; v < domain; ++v) {
      int null_flag;
      std::string name;
      if (!(is >> null_flag) || null_flag < 0 || null_flag > 1 ||
          !ReadString(is, &name)) {
        return corrupt("malformed domain value entry");
      }
      // AddValue appends, so restored ids are dense and identical.
      instance.AddValue(attr, std::move(name), null_flag != 0);
    }
  }
  Result<TupleStore> store = TupleStore::Deserialize(is);
  if (!store.ok()) return R::Error(store.code(), store.error());
  if (store.value().arity() != arity) {
    return corrupt("tuple block arity mismatch");
  }
  // Route tuples through AddTuple so the inverted index (and dedup table)
  // are rebuilt; insertion in id order reproduces ids and ascending posting
  // lists exactly.
  instance.Reserve(store.value().size(), 0);
  for (std::size_t id = 0; id < store.value().size(); ++id) {
    TupleRef t = store.value()[id];
    for (int attr = 0; attr < arity; ++attr) {
      if (t[attr] < 0 || t[attr] >= instance.DomainSize(attr)) {
        return corrupt("tuple value outside its domain");
      }
    }
    if (!instance.AddTuple(t)) return corrupt("duplicate tuple");
  }
  return instance;
}

std::string Instance::ToString() const {
  std::vector<std::string> headers;
  for (int a = 0; a < schema_->arity(); ++a) headers.push_back(schema_->name(a));
  TablePrinter table(headers);
  for (std::size_t i = 0; i < store_.size(); ++i) {
    TupleRef t = store_[i];
    std::vector<std::string> row;
    for (int a = 0; a < schema_->arity(); ++a) {
      row.push_back(value_names_[a][t[a]]);
    }
    table.AddRow(std::move(row));
  }
  return table.ToString();
}

std::string Instance::CheckInvariants() const {
  std::string store_problem = store_.CheckInvariants();
  if (!store_problem.empty()) return store_problem;
  for (std::size_t i = 0; i < store_.size(); ++i) {
    TupleRef t = store_[i];
    for (int a = 0; a < schema_->arity(); ++a) {
      if (t[a] < 0 || t[a] >= DomainSize(a)) return "tuple value out of range";
    }
  }
  if (csr_count_ > store_.size()) return "CSR covers more tuples than stored";
  for (int a = 0; a < schema_->arity(); ++a) {
    const std::vector<std::int32_t>& offsets = csr_offsets_[a];
    if (offsets.empty() || offsets[0] != 0 ||
        offsets.size() > static_cast<std::size_t>(DomainSize(a)) + 1) {
      return "CSR offset table malformed";
    }
    if (static_cast<std::size_t>(offsets.back()) != csr_count_) {
      return "CSR slab does not cover csr_count tuples";
    }
    if (tail_[a].size() != static_cast<std::size_t>(DomainSize(a))) {
      return "tail table size differs from domain";
    }
    std::size_t indexed = 0;
    for (int v = 0; v < DomainSize(a); ++v) {
      CandidateList list = TuplesWith(a, v);
      indexed += list.size();
      int prev = -1;
      for (std::size_t i = 0; i < list.size(); ++i) {
        int id = list[i];
        if (id < 0 || id >= static_cast<int>(store_.size())) {
          return "index refers to missing tuple";
        }
        if (id <= prev) return "posting list not ascending";
        if (store_[static_cast<std::size_t>(id)][a] != v) {
          return "posting list id under the wrong value";
        }
        const bool in_base = i < list.base().size();
        if (in_base && id >= static_cast<int>(csr_count_)) {
          return "tail-region id found in the CSR base";
        }
        if (!in_base && id < static_cast<int>(csr_count_)) {
          return "CSR-region id found in a tail";
        }
        prev = id;
      }
    }
    if (indexed != store_.size()) return "index cardinality mismatch";
  }
  return "";
}

}  // namespace tdlib
