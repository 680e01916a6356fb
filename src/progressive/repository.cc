#include "progressive/repository.h"

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <sstream>

#include "util/io.h"

namespace mgardp {

namespace {
constexpr std::uint32_t kManifestMagic = 0x4D414E46;  // "MANF"
constexpr std::uint32_t kManifestVersion = 1;
// Smallest serialised manifest entry (52 bytes): two string lengths, the
// int32 timestep, three extents and the stored byte count.
constexpr std::size_t kMinEntryBytes =
    2 * sizeof(std::uint64_t) + sizeof(std::int32_t) +
    4 * sizeof(std::uint64_t);

// Campaign coordinates become directory names; refuse anything that could
// escape the repository root.
Status ValidateName(const std::string& name) {
  if (name.empty() || name.find('/') != std::string::npos ||
      name.find("..") != std::string::npos) {
    return Status::Invalid("invalid component name: '" + name + "'");
  }
  return Status::OK();
}
}  // namespace

FieldRepository::FieldRepository(FieldRepository&& other) noexcept
    : root_(std::move(other.root_)), entries_(std::move(other.entries_)) {}

FieldRepository& FieldRepository::operator=(
    FieldRepository&& other) noexcept {
  if (this != &other) {
    std::scoped_lock lock(mu_, other.mu_);
    root_ = std::move(other.root_);
    entries_ = std::move(other.entries_);
  }
  return *this;
}

std::vector<FieldRepository::Entry> FieldRepository::entries() const {
  std::shared_lock lock(mu_);
  return entries_;
}

Result<FieldRepository> FieldRepository::Open(const std::string& root) {
  std::error_code ec;
  std::filesystem::create_directories(root, ec);
  if (ec) {
    return Status::IOError("cannot create repository root " + root + ": " +
                           ec.message());
  }
  FieldRepository repo(root);
  const std::string manifest_path = root + "/manifest.bin";
  if (!std::filesystem::exists(manifest_path)) {
    return repo;  // fresh repository
  }
  MGARDP_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(manifest_path));
  BinaryReader r(bytes);
  std::uint32_t magic = 0, version = 0;
  MGARDP_RETURN_NOT_OK(r.Get(&magic));
  MGARDP_RETURN_NOT_OK(r.Get(&version));
  if (magic != kManifestMagic || version != kManifestVersion) {
    return Status::Invalid("unrecognized manifest at " + manifest_path);
  }
  std::uint64_t count = 0;
  MGARDP_RETURN_NOT_OK(r.Get(&count));
  if (count > r.remaining() / kMinEntryBytes) {
    return Status::Invalid("manifest at " + manifest_path + " claims " +
                           std::to_string(count) + " entries in " +
                           std::to_string(r.remaining()) + " bytes");
  }
  repo.entries_.resize(count);
  for (Entry& e : repo.entries_) {
    MGARDP_RETURN_NOT_OK(r.GetString(&e.application));
    MGARDP_RETURN_NOT_OK(r.GetString(&e.field));
    std::int32_t t = 0;
    MGARDP_RETURN_NOT_OK(r.Get(&t));
    e.timestep = t;
    std::uint64_t nx = 0, ny = 0, nz = 0, bytes_stored = 0;
    MGARDP_RETURN_NOT_OK(r.Get(&nx));
    MGARDP_RETURN_NOT_OK(r.Get(&ny));
    MGARDP_RETURN_NOT_OK(r.Get(&nz));
    MGARDP_RETURN_NOT_OK(r.Get(&bytes_stored));
    e.dims = Dims3{nx, ny, nz};
    e.stored_bytes = bytes_stored;
  }
  return repo;
}

Status FieldRepository::WriteManifest() const {
  BinaryWriter w;
  w.Put(kManifestMagic);
  w.Put(kManifestVersion);
  w.Put<std::uint64_t>(entries_.size());
  for (const Entry& e : entries_) {
    w.PutString(e.application);
    w.PutString(e.field);
    w.Put<std::int32_t>(e.timestep);
    w.Put<std::uint64_t>(e.dims.nx);
    w.Put<std::uint64_t>(e.dims.ny);
    w.Put<std::uint64_t>(e.dims.nz);
    w.Put<std::uint64_t>(e.stored_bytes);
  }
  return WriteFile(root_ + "/manifest.bin", w.buffer());
}

std::string FieldRepository::ArtifactDir(const std::string& application,
                                         const std::string& field,
                                         int timestep) const {
  std::ostringstream os;
  os << root_ << "/" << application << "/" << field << "/t";
  os.width(6);
  os.fill('0');
  os << timestep;
  return os.str();
}

bool FieldRepository::Contains(const std::string& application,
                               const std::string& field,
                               int timestep) const {
  Entry probe{application, field, timestep, {}, 0};
  std::shared_lock lock(mu_);
  return std::find(entries_.begin(), entries_.end(), probe) !=
         entries_.end();
}

std::vector<int> FieldRepository::Timesteps(const std::string& application,
                                            const std::string& field) const {
  std::vector<int> out;
  std::shared_lock lock(mu_);
  for (const Entry& e : entries_) {
    if (e.application == application && e.field == field) {
      out.push_back(e.timestep);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Status FieldRepository::Store(const std::string& application,
                              const std::string& field, int timestep,
                              const RefactoredField& artifact) {
  MGARDP_RETURN_NOT_OK(ValidateName(application));
  MGARDP_RETURN_NOT_OK(ValidateName(field));
  if (timestep < 0) {
    return Status::Invalid("timestep must be non-negative");
  }
  const std::string dir = ArtifactDir(application, field, timestep);
  MGARDP_RETURN_NOT_OK(artifact.WriteToDirectory(dir));

  Entry entry{application, field, timestep, artifact.original_dims,
              artifact.segments.TotalBytes()};
  std::unique_lock lock(mu_);
  auto it = std::find(entries_.begin(), entries_.end(), entry);
  if (it != entries_.end()) {
    *it = entry;
  } else {
    entries_.push_back(entry);
  }
  return WriteManifest();
}

Result<RefactoredField> FieldRepository::Load(const std::string& application,
                                              const std::string& field,
                                              int timestep) const {
  if (!Contains(application, field, timestep)) {
    std::ostringstream os;
    os << application << "/" << field << "/t" << timestep;
    return Status::NotFound(os.str());
  }
  return RefactoredField::LoadFromDirectory(
      ArtifactDir(application, field, timestep));
}

Status FieldRepository::StoreSeries(const FieldSeries& series,
                                    const Refactorer& refactorer) {
  for (int t = 0; t < series.num_timesteps(); ++t) {
    MGARDP_ASSIGN_OR_RETURN(RefactoredField artifact,
                            refactorer.Refactor(series.frames[t]));
    MGARDP_RETURN_NOT_OK(Store(series.application, series.field, t,
                               artifact));
  }
  return Status::OK();
}

std::size_t FieldRepository::TotalBytes() const {
  std::size_t total = 0;
  std::shared_lock lock(mu_);
  for (const Entry& e : entries_) {
    total += e.stored_bytes;
  }
  return total;
}

}  // namespace mgardp
