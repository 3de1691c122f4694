#include "pdsi/pfs/namespace.h"

#include <stdexcept>

namespace pdsi::pfs {

std::string NormalizePath(std::string_view path) {
  if (path.empty() || path[0] != '/') {
    throw std::invalid_argument("path must be absolute: " + std::string(path));
  }
  std::string out;
  out.reserve(path.size());
  std::size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') ++i;
    std::size_t j = i;
    while (j < path.size() && path[j] != '/') ++j;
    if (j > i) {
      out.push_back('/');
      out.append(path.substr(i, j - i));
    }
    i = j;
  }
  if (out.empty()) out = "/";
  return out;
}

namespace {
/// True when `path` is already in NormalizePath's form.
bool IsNormalized(std::string_view path) {
  if (path.empty() || path[0] != '/') return false;
  if (path.size() == 1) return true;  // the root
  return path.back() != '/' && path.find("//") == std::string_view::npos;
}
}  // namespace

const std::string& Normalized(const std::string& path, std::string* own) {
  if (IsNormalized(path)) return path;
  *own = NormalizePath(path);
  return *own;
}

std::string_view ParentPath(std::string_view normalized) {
  const auto pos = normalized.find_last_of('/');
  if (pos == 0 || pos == std::string_view::npos) return "/";
  return normalized.substr(0, pos);
}

Namespace::Namespace(std::uint64_t first_id) : next_file_id_(first_id) {
  Inode root;
  root.is_dir = true;
  entries_.emplace("/", root);
}

Result<Inode> Namespace::add(const std::string& path, bool is_dir,
                             double mtime) {
  std::string own;
  const std::string& p = Normalized(path, &own);
  const auto at = entries_.lower_bound(p);
  if (at != entries_.end() && at->first == p) return Errc::exists;
  const auto parent = entries_.find(ParentPath(p));
  if (parent == entries_.end()) return Errc::not_found;
  if (!parent->second.is_dir) return Errc::not_dir;
  Inode node;
  node.file_id = next_file_id_++;
  node.is_dir = is_dir;
  node.mtime = mtime;
  entries_.emplace_hint(at, p, node);
  return node;
}

Result<Inode> Namespace::create(const std::string& path, double mtime) {
  return add(path, false, mtime);
}

Status Namespace::mkdir(const std::string& path) {
  const auto made = add(path, true, 0.0);
  return made.ok() ? Status::Ok() : Status(made.error());
}

Result<Inode> Namespace::lookup(const std::string& path) const {
  std::string own;
  auto it = entries_.find(Normalized(path, &own));
  if (it == entries_.end()) return Errc::not_found;
  return it->second;
}

bool Namespace::has_children(const std::string& normalized) const {
  // Scan from the first key sorting after "<dir>/": the immediate map
  // successor of "/a" can be a sibling like "/a.x" ('.' < '/'), so the
  // probe must seek past every such sibling before testing the prefix.
  const std::string prefix =
      normalized == "/" ? "/" : normalized + "/";
  auto child = entries_.lower_bound(prefix);
  if (child != entries_.end() && child->first == normalized) ++child;
  return child != entries_.end() &&
         child->first.compare(0, prefix.size(), prefix) == 0;
}

Status Namespace::unlink(const std::string& path, Inode* removed) {
  std::string own;
  const std::string& p = Normalized(path, &own);
  if (p == "/") return Errc::not_supported;  // the root is not unlinkable
  auto it = entries_.find(p);
  if (it == entries_.end()) return Errc::not_found;
  if (it->second.is_dir && has_children(p)) return Errc::not_empty;
  if (removed) *removed = it->second;
  entries_.erase(it);
  ++generation_;
  return Status::Ok();
}

Status Namespace::rename(const std::string& from, const std::string& to,
                         double mtime) {
  std::string own_from;
  std::string own_to;
  const std::string& f = Normalized(from, &own_from);
  const std::string& t = Normalized(to, &own_to);
  auto it = entries_.find(f);
  if (it == entries_.end()) return Errc::not_found;
  if (it->second.is_dir) return Errc::not_supported;  // file rename only
  if (f == t) return Status::Ok();  // POSIX: same-path rename is a no-op
  if (entries_.count(t)) return Errc::exists;
  auto parent = entries_.find(ParentPath(t));
  if (parent == entries_.end()) return Errc::not_found;
  if (!parent->second.is_dir) return Errc::not_dir;
  Inode node = it->second;
  node.mtime = mtime;
  entries_.erase(it);
  entries_.emplace(t, node);
  ++generation_;
  return Status::Ok();
}

Result<std::vector<std::string>> Namespace::readdir(
    const std::string& path) const {
  std::string own;
  const std::string& p = Normalized(path, &own);
  auto it = entries_.find(p);
  if (it == entries_.end()) return Errc::not_found;
  if (!it->second.is_dir) return Errc::not_dir;
  std::vector<std::string> names;
  const std::string prefix = p == "/" ? "/" : p + "/";
  for (auto child = entries_.upper_bound(prefix);
       child != entries_.end() &&
       child->first.compare(0, prefix.size(), prefix) == 0;
       ++child) {
    const std::string rest = child->first.substr(prefix.size());
    if (rest.find('/') == std::string::npos) names.push_back(rest);
  }
  return names;
}

Inode* Namespace::find(std::string_view normalized) {
  auto it = entries_.find(normalized);
  return it == entries_.end() ? nullptr : &it->second;
}

void Namespace::install(const std::string& normalized, const Inode& inode) {
  entries_[normalized] = inode;
  ++generation_;
}

bool Namespace::take(const std::string& normalized, Inode* out) {
  auto it = entries_.find(normalized);
  if (it == entries_.end()) return false;
  if (out) *out = it->second;
  entries_.erase(it);
  ++generation_;
  return true;
}

}  // namespace pdsi::pfs
