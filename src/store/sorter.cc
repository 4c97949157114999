#include "store/sorter.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <utility>

#include "store/coding.h"

namespace autocat {

namespace {

constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagInt64 = 1;
constexpr uint8_t kTagDouble = 2;
constexpr uint8_t kTagString = 3;

void SerializeRow(const Row& row, std::string* out) {
  for (const Value& v : row) {
    switch (v.type()) {
      case ValueType::kNull:
        out->push_back(static_cast<char>(kTagNull));
        break;
      case ValueType::kInt64:
        out->push_back(static_cast<char>(kTagInt64));
        AppendFixed64(static_cast<uint64_t>(v.int64_value()), out);
        break;
      case ValueType::kDouble: {
        out->push_back(static_cast<char>(kTagDouble));
        uint64_t bits;
        const double d = v.double_value();
        std::memcpy(&bits, &d, 8);
        AppendFixed64(bits, out);
        break;
      }
      case ValueType::kString:
        out->push_back(static_cast<char>(kTagString));
        AppendLengthPrefixed(v.string_value(), out);
        break;
    }
  }
}

Status ReadExact(std::ifstream* in, char* buf, size_t n) {
  in->read(buf, static_cast<std::streamsize>(n));
  if (in->gcount() != static_cast<std::streamsize>(n)) {
    return Status::IOError("truncated sorter run file");
  }
  return Status::OK();
}

Status DeserializeRow(std::ifstream* in, size_t num_columns, Row* out) {
  out->clear();
  out->reserve(num_columns);
  for (size_t c = 0; c < num_columns; ++c) {
    char tag;
    AUTOCAT_RETURN_IF_ERROR(ReadExact(in, &tag, 1));
    switch (static_cast<uint8_t>(tag)) {
      case kTagNull:
        out->emplace_back();
        break;
      case kTagInt64: {
        char buf[8];
        AUTOCAT_RETURN_IF_ERROR(ReadExact(in, buf, 8));
        uint64_t bits;
        std::memcpy(&bits, buf, 8);
        out->emplace_back(static_cast<int64_t>(bits));
        break;
      }
      case kTagDouble: {
        char buf[8];
        AUTOCAT_RETURN_IF_ERROR(ReadExact(in, buf, 8));
        double d;
        std::memcpy(&d, buf, 8);
        out->emplace_back(d);
        break;
      }
      case kTagString: {
        // Length varint, byte at a time (run files are trusted local
        // temp files, but stay bounds-honest anyway).
        uint64_t len = 0;
        int shift = 0;
        while (true) {
          char b;
          AUTOCAT_RETURN_IF_ERROR(ReadExact(in, &b, 1));
          const uint8_t byte = static_cast<uint8_t>(b);
          len |= static_cast<uint64_t>(byte & 0x7f) << shift;
          if ((byte & 0x80) == 0) {
            break;
          }
          shift += 7;
          if (shift > 63) {
            return Status::IOError("malformed length in sorter run file");
          }
        }
        std::string s(static_cast<size_t>(len), '\0');
        AUTOCAT_RETURN_IF_ERROR(ReadExact(in, s.data(), s.size()));
        out->emplace_back(std::move(s));
        break;
      }
      default:
        return Status::IOError("unknown cell tag in sorter run file");
    }
  }
  return Status::OK();
}

// Approximate resident footprint of a deserialized row.
size_t ResidentRowBytes(const Row& row) {
  size_t bytes = sizeof(Row) + row.capacity() * sizeof(Value);
  for (const Value& v : row) {
    if (v.is_string()) {
      bytes += v.string_value().capacity();
    }
  }
  return bytes;
}

}  // namespace

ExternalRowSorter::ExternalRowSorter(Schema schema, SorterOptions options)
    : schema_(std::move(schema)), options_(std::move(options)) {
  AUTOCAT_CHECK(!options_.temp_dir.empty());
  for (const size_t col : options_.sort_columns) {
    AUTOCAT_CHECK_LT(col, schema_.num_columns());
  }
}

ExternalRowSorter::~ExternalRowSorter() {
  // Best-effort removal of spill state; Cleanup() reports errors.
  (void)Cleanup();
}

int ExternalRowSorter::CompareKeys(const Row& a, const Row& b) const {
  for (const size_t col : options_.sort_columns) {
    const int cmp = a[col].Compare(b[col]);
    if (cmp != 0) {
      return cmp;
    }
  }
  return 0;
}

Status ExternalRowSorter::AddRow(const Row& row) {
  if (finished_) {
    return Status::InvalidArgument("Add after Finish");
  }
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " cells, schema has " +
        std::to_string(schema_.num_columns()) + " columns");
  }
  chunk_bytes_ += ResidentRowBytes(row);
  chunk_.push_back(row);
  ++num_rows_;
  if (chunk_bytes_ >= options_.memory_budget_bytes) {
    return SpillChunk();
  }
  return Status::OK();
}

Status ExternalRowSorter::SpillChunk() {
  if (chunk_.empty()) {
    return Status::OK();
  }
  std::error_code ec;
  std::filesystem::create_directories(options_.temp_dir, ec);
  if (ec) {
    return Status::IOError("cannot create temp dir '" + options_.temp_dir +
                           "': " + ec.message());
  }
  // Stable sort: equal keys keep input order, so the merged stream is the
  // stable sort of the whole input (and exactly the input when no sort
  // columns are set).
  if (!options_.sort_columns.empty()) {
    std::stable_sort(chunk_.begin(), chunk_.end(),
                     [this](const Row& a, const Row& b) {
                       return CompareKeys(a, b) < 0;
                     });
  }
  const std::string path =
      options_.temp_dir + "/run_" + std::to_string(runs_.size()) + ".rows";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot create run file '" + path + "'");
  }
  std::string buf;
  for (const Row& row : chunk_) {
    buf.clear();
    SerializeRow(row, &buf);
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  }
  out.flush();
  if (!out) {
    return Status::IOError("cannot write run file '" + path + "'");
  }
  runs_.push_back(path);
  run_rows_.push_back(chunk_.size());
  chunk_.clear();
  chunk_.shrink_to_fit();
  chunk_bytes_ = 0;
  return Status::OK();
}

Status ExternalRowSorter::Finish() {
  if (finished_) {
    return Status::OK();
  }
  AUTOCAT_RETURN_IF_ERROR(SpillChunk());
  finished_ = true;
  return Status::OK();
}

Result<ExternalRowSorter::Stream> ExternalRowSorter::OpenStream() const {
  if (!finished_) {
    return Status::InvalidArgument("OpenStream before Finish");
  }
  Stream stream;
  stream.parent_ = this;
  for (size_t i = 0; i < runs_.size(); ++i) {
    Stream::RunCursor cursor;
    cursor.in = std::make_unique<std::ifstream>(runs_[i], std::ios::binary);
    if (!*cursor.in) {
      return Status::IOError("cannot open run file '" + runs_[i] + "'");
    }
    cursor.remaining = run_rows_[i];
    cursor.run_index = i;
    if (cursor.remaining > 0) {
      AUTOCAT_RETURN_IF_ERROR(DeserializeRow(
          cursor.in.get(), schema_.num_columns(), &cursor.row));
      --cursor.remaining;
      stream.cursors_.push_back(std::move(cursor));
    }
  }
  return stream;
}

Result<bool> ExternalRowSorter::Stream::Next(Row* out) {
  if (cursors_.empty()) {
    return false;
  }
  // Linear min-scan over run heads: run count is small (input size /
  // chunk budget), and ties must resolve to the lowest run index to keep
  // the merge stable.
  size_t best = 0;
  for (size_t i = 1; i < cursors_.size(); ++i) {
    if (parent_->CompareKeys(cursors_[i].row, cursors_[best].row) < 0) {
      best = i;
    }
  }
  *out = std::move(cursors_[best].row);
  RunCursor& cursor = cursors_[best];
  if (cursor.remaining > 0) {
    AUTOCAT_RETURN_IF_ERROR(DeserializeRow(
        cursor.in.get(), parent_->schema_.num_columns(), &cursor.row));
    --cursor.remaining;
  } else {
    cursors_.erase(cursors_.begin() + static_cast<ptrdiff_t>(best));
  }
  return true;
}

Status ExternalRowSorter::Cleanup() {
  Status status = Status::OK();
  for (const std::string& path : runs_) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
    if (ec && status.ok()) {
      status = Status::IOError("cannot remove run file '" + path +
                               "': " + ec.message());
    }
  }
  runs_.clear();
  run_rows_.clear();
  if (!options_.temp_dir.empty()) {
    std::error_code ec;
    // Only removes the directory when empty — other sorters may share it.
    std::filesystem::remove(options_.temp_dir, ec);
  }
  return status;
}

}  // namespace autocat
