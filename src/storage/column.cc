#include "storage/column.h"

#include <algorithm>

#include "common/check.h"
#include "common/hash.h"

namespace aqp {

std::shared_ptr<const StringDictionary> StringDictionary::Build(
    const std::vector<std::string>& values,
    const std::vector<uint8_t>& valid) {
  auto dict = std::make_shared<StringDictionary>();
  std::vector<std::string> distinct;
  distinct.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    if (valid[i]) distinct.push_back(values[i]);
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  distinct.shrink_to_fit();
  dict->sorted_ = std::move(distinct);
  dict->codes_.resize(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    if (!valid[i]) {
      dict->codes_[i] = kNullCode;
      continue;
    }
    auto it = std::lower_bound(dict->sorted_.begin(), dict->sorted_.end(),
                               values[i]);
    dict->codes_[i] = static_cast<uint32_t>(it - dict->sorted_.begin());
  }
  return dict;
}

bool StringDictionary::CodeOf(const std::string& s, uint32_t* code) const {
  auto it = std::lower_bound(sorted_.begin(), sorted_.end(), s);
  if (it == sorted_.end() || *it != s) return false;
  *code = static_cast<uint32_t>(it - sorted_.begin());
  return true;
}

uint32_t StringDictionary::LowerBound(const std::string& s) const {
  return static_cast<uint32_t>(
      std::lower_bound(sorted_.begin(), sorted_.end(), s) - sorted_.begin());
}

uint32_t StringDictionary::UpperBound(const std::string& s) const {
  return static_cast<uint32_t>(
      std::upper_bound(sorted_.begin(), sorted_.end(), s) - sorted_.begin());
}

uint64_t StringDictionary::ApproxBytes() const {
  uint64_t bytes = codes_.capacity() * sizeof(uint32_t);
  bytes += sorted_.capacity() * sizeof(std::string);
  for (const std::string& s : sorted_) {
    if (s.capacity() > sizeof(std::string)) bytes += s.capacity();
  }
  return bytes;
}

Column::Column(const Column& other)
    : type_(other.type_),
      ints_(other.ints_),
      doubles_(other.doubles_),
      strings_(other.strings_),
      bools_(other.bools_),
      valid_(other.valid_),
      null_count_(other.null_count_),
      dict_(other.dict_.load(std::memory_order_acquire)) {}

Column& Column::operator=(const Column& other) {
  if (this == &other) return *this;
  type_ = other.type_;
  ints_ = other.ints_;
  doubles_ = other.doubles_;
  strings_ = other.strings_;
  bools_ = other.bools_;
  valid_ = other.valid_;
  null_count_ = other.null_count_;
  dict_.store(other.dict_.load(std::memory_order_acquire),
              std::memory_order_release);
  return *this;
}

Column::Column(Column&& other) noexcept
    : type_(other.type_),
      ints_(std::move(other.ints_)),
      doubles_(std::move(other.doubles_)),
      strings_(std::move(other.strings_)),
      bools_(std::move(other.bools_)),
      valid_(std::move(other.valid_)),
      null_count_(other.null_count_),
      dict_(other.dict_.load(std::memory_order_acquire)) {}

Column& Column::operator=(Column&& other) noexcept {
  if (this == &other) return *this;
  type_ = other.type_;
  ints_ = std::move(other.ints_);
  doubles_ = std::move(other.doubles_);
  strings_ = std::move(other.strings_);
  bools_ = std::move(other.bools_);
  valid_ = std::move(other.valid_);
  null_count_ = other.null_count_;
  dict_.store(other.dict_.load(std::memory_order_acquire),
              std::memory_order_release);
  return *this;
}

Column Column::FromInt64(std::vector<int64_t> values) {
  Column c(DataType::kInt64);
  c.valid_.assign(values.size(), 1);
  c.ints_ = std::move(values);
  return c;
}

Column Column::FromDouble(std::vector<double> values) {
  Column c(DataType::kDouble);
  c.valid_.assign(values.size(), 1);
  c.doubles_ = std::move(values);
  return c;
}

Column Column::FromString(std::vector<std::string> values) {
  Column c(DataType::kString);
  c.valid_.assign(values.size(), 1);
  c.strings_ = std::move(values);
  return c;
}

Column Column::FromBool(std::vector<bool> values) {
  Column c(DataType::kBool);
  c.valid_.assign(values.size(), 1);
  c.bools_.reserve(values.size());
  for (bool b : values) c.bools_.push_back(b ? 1 : 0);
  return c;
}

double Column::NumericAt(size_t i) const {
  if (type_ == DataType::kInt64) return static_cast<double>(ints_[i]);
  AQP_CHECK(type_ == DataType::kDouble)
      << "NumericAt on " << DataTypeName(type_) << " column";
  return doubles_[i];
}

Value Column::GetValue(size_t i) const {
  AQP_DCHECK(i < size());
  if (IsNull(i)) return Value::Null();
  switch (type_) {
    case DataType::kInt64:
      return Value(ints_[i]);
    case DataType::kDouble:
      return Value(doubles_[i]);
    case DataType::kString:
      return Value(strings_[i]);
    case DataType::kBool:
      return Value(bools_[i] != 0);
  }
  return Value::Null();
}

void Column::AppendInt64(int64_t v) {
  AQP_DCHECK(type_ == DataType::kInt64);
  ints_.push_back(v);
  valid_.push_back(1);
}

void Column::AppendDouble(double v) {
  AQP_DCHECK(type_ == DataType::kDouble);
  doubles_.push_back(v);
  valid_.push_back(1);
}

void Column::AppendString(std::string v) {
  AQP_DCHECK(type_ == DataType::kString);
  strings_.push_back(std::move(v));
  valid_.push_back(1);
}

void Column::AppendBool(bool v) {
  AQP_DCHECK(type_ == DataType::kBool);
  bools_.push_back(v ? 1 : 0);
  valid_.push_back(1);
}

void Column::AppendNull() {
  switch (type_) {
    case DataType::kInt64:
      ints_.push_back(0);
      break;
    case DataType::kDouble:
      doubles_.push_back(0.0);
      break;
    case DataType::kString:
      strings_.emplace_back();
      break;
    case DataType::kBool:
      bools_.push_back(0);
      break;
  }
  valid_.push_back(0);
  ++null_count_;
}

Status Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  switch (type_) {
    case DataType::kInt64:
      if (!v.is_int64()) break;
      AppendInt64(v.int64());
      return Status::OK();
    case DataType::kDouble:
      if (v.is_double()) {
        AppendDouble(v.dbl());
        return Status::OK();
      }
      if (v.is_int64()) {  // Widen INT64 literals into DOUBLE columns.
        AppendDouble(static_cast<double>(v.int64()));
        return Status::OK();
      }
      break;
    case DataType::kString:
      if (!v.is_string()) break;
      AppendString(v.str());
      return Status::OK();
    case DataType::kBool:
      if (!v.is_bool()) break;
      AppendBool(v.boolean());
      return Status::OK();
  }
  return Status::InvalidArgument(
      "value " + v.ToString() + " does not fit column type " +
      std::string(DataTypeName(type_)));
}

void Column::AppendFrom(const Column& other, size_t i) {
  AQP_DCHECK(other.type_ == type_);
  if (other.IsNull(i)) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kInt64:
      AppendInt64(other.ints_[i]);
      break;
    case DataType::kDouble:
      AppendDouble(other.doubles_[i]);
      break;
    case DataType::kString:
      AppendString(other.strings_[i]);
      break;
    case DataType::kBool:
      AppendBool(other.bools_[i] != 0);
      break;
  }
}

Column Column::Take(const std::vector<uint32_t>& indices) const {
  Column out(type_);
  out.Reserve(indices.size());
  for (uint32_t i : indices) {
    AQP_DCHECK(i < size());
    out.AppendFrom(*this, i);
  }
  return out;
}

Column Column::Slice(size_t offset, size_t length) const {
  AQP_CHECK(offset <= size());
  length = std::min(length, size() - offset);
  Column out(type_);
  out.Reserve(length);
  for (size_t i = offset; i < offset + length; ++i) out.AppendFrom(*this, i);
  return out;
}

template <bool kMayMiss>
Column Column::Gather(const std::vector<uint32_t>& indices) const {
  Column out(type_);
  const size_t n = indices.size();
  const uint32_t* idx = indices.data();
  // Misses stay default-valued and invalid, exactly as AppendNull leaves them.
  auto missed = [idx](size_t i) { return kMayMiss && idx[i] == kNoRow; };
  out.valid_.resize(n);
  uint8_t* ov = out.valid_.data();
  if (null_count_ == 0 && !kMayMiss) {
    std::fill(ov, ov + n, uint8_t{1});
  } else {
    const uint8_t* v = valid_.data();
    size_t nulls = 0;
    for (size_t i = 0; i < n; ++i) {
      ov[i] = missed(i) ? 0 : v[idx[i]];
      nulls += ov[i] == 0 ? 1 : 0;
    }
    out.null_count_ = nulls;
  }
  auto gather = [&](const auto* src, auto* dst) {
    for (size_t i = 0; i < n; ++i) {
      if (!missed(i)) dst[i] = src[idx[i]];
    }
  };
  switch (type_) {
    case DataType::kInt64:
      out.ints_.resize(n);
      gather(ints_.data(), out.ints_.data());
      break;
    case DataType::kDouble:
      out.doubles_.resize(n);
      gather(doubles_.data(), out.doubles_.data());
      break;
    case DataType::kString:
      out.strings_.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (missed(i)) {
          out.strings_.emplace_back();
        } else {
          out.strings_.push_back(strings_[idx[i]]);
        }
      }
      break;
    case DataType::kBool:
      out.bools_.resize(n);
      gather(bools_.data(), out.bools_.data());
      break;
  }
  return out;
}

Column Column::TakeBatch(const std::vector<uint32_t>& indices) const {
  return Gather<false>(indices);
}

Column Column::TakeBatchOrNull(const std::vector<uint32_t>& indices) const {
  return Gather<true>(indices);
}

Column Column::SliceBatch(size_t offset, size_t length) const {
  AQP_CHECK(offset <= size());
  length = std::min(length, size() - offset);
  Column out(type_);
  out.valid_.assign(valid_.begin() + offset, valid_.begin() + offset + length);
  if (null_count_ != 0) {
    size_t nulls = 0;
    for (uint8_t v : out.valid_) nulls += v == 0 ? 1 : 0;
    out.null_count_ = nulls;
  }
  switch (type_) {
    case DataType::kInt64:
      out.ints_.assign(ints_.begin() + offset,
                       ints_.begin() + offset + length);
      break;
    case DataType::kDouble:
      out.doubles_.assign(doubles_.begin() + offset,
                          doubles_.begin() + offset + length);
      break;
    case DataType::kString:
      out.strings_.assign(strings_.begin() + offset,
                          strings_.begin() + offset + length);
      break;
    case DataType::kBool:
      out.bools_.assign(bools_.begin() + offset,
                        bools_.begin() + offset + length);
      break;
  }
  return out;
}

std::shared_ptr<const StringDictionary> Column::EnsureDictionary() const {
  if (type_ != DataType::kString) return nullptr;
  auto cached = dict_.load(std::memory_order_acquire);
  if (cached != nullptr && cached->codes().size() == size()) return cached;
  auto built = StringDictionary::Build(strings_, valid_);
  // Concurrent builders race benignly: every build over the same rows yields
  // identical content, so last-store-wins is fine.
  dict_.store(built, std::memory_order_release);
  return built;
}

std::shared_ptr<const StringDictionary> Column::dictionary_if_built() const {
  auto cached = dict_.load(std::memory_order_acquire);
  if (cached != nullptr && cached->codes().size() == size()) return cached;
  return nullptr;
}

uint64_t Column::HashAt(size_t i, uint64_t seed) const {
  if (IsNull(i)) return Mix64(seed ^ 0xdeadbeefcafef00dULL);
  switch (type_) {
    case DataType::kInt64:
      return HashInt64(ints_[i], seed);
    case DataType::kDouble:
      return HashDouble(doubles_[i], seed);
    case DataType::kString:
      return HashString(strings_[i], seed);
    case DataType::kBool:
      return HashInt64(bools_[i] != 0 ? 1 : 0, seed ^ 0x5bd1e995);
  }
  return 0;
}

bool Column::SlotEquals(size_t i, const Column& other, size_t j) const {
  AQP_DCHECK(type_ == other.type_);
  bool a_null = IsNull(i);
  bool b_null = other.IsNull(j);
  if (a_null || b_null) return a_null && b_null;
  switch (type_) {
    case DataType::kInt64:
      return ints_[i] == other.ints_[j];
    case DataType::kDouble:
      return doubles_[i] == other.doubles_[j];
    case DataType::kString:
      return strings_[i] == other.strings_[j];
    case DataType::kBool:
      return bools_[i] == other.bools_[j];
  }
  return false;
}

void Column::Reserve(size_t n) {
  valid_.reserve(n);
  switch (type_) {
    case DataType::kInt64:
      ints_.reserve(n);
      break;
    case DataType::kDouble:
      doubles_.reserve(n);
      break;
    case DataType::kString:
      strings_.reserve(n);
      break;
    case DataType::kBool:
      bools_.reserve(n);
      break;
  }
}

uint64_t Column::ApproxBytes() const {
  uint64_t bytes = valid_.capacity();
  bytes += ints_.capacity() * sizeof(int64_t);
  bytes += doubles_.capacity() * sizeof(double);
  bytes += bools_.capacity();
  bytes += strings_.capacity() * sizeof(std::string);
  for (const std::string& s : strings_) {
    // Heap payload only; short strings live inside the std::string footprint
    // counted above.
    if (s.capacity() > sizeof(std::string)) bytes += s.capacity();
  }
  return bytes;
}

}  // namespace aqp
