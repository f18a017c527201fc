#include "util/file_io.h"

#include <cstdio>
#include <filesystem>

namespace ada {

namespace {
constexpr std::uint32_t kMagic = 0xADA5CA1Eu;
}  // namespace

bool save_floats(const std::string& path, const std::vector<float>& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::uint32_t magic = kMagic;
  auto count = static_cast<std::uint64_t>(data.size());
  bool ok = std::fwrite(&magic, sizeof(magic), 1, f) == 1 &&
            std::fwrite(&count, sizeof(count), 1, f) == 1;
  if (ok && count > 0)
    ok = std::fwrite(data.data(), sizeof(float), data.size(), f) == data.size();
  std::fclose(f);
  return ok;
}

bool load_floats(const std::string& path, std::vector<float>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::uint32_t magic = 0;
  std::uint64_t count = 0;
  bool ok = std::fread(&magic, sizeof(magic), 1, f) == 1 &&
            std::fread(&count, sizeof(count), 1, f) == 1 && magic == kMagic;
  if (ok) {
    // The header's count is untrusted: the bytes after it must hold exactly
    // that many floats before anything is allocated for them.
    const long header = std::ftell(f);
    const long end = std::fseek(f, 0, SEEK_END) == 0 ? std::ftell(f) : -1;
    ok = header >= 0 && end >= header && std::fseek(f, header, SEEK_SET) == 0;
    const auto payload = static_cast<std::uint64_t>(ok ? end - header : 0);
    if (ok && (payload % sizeof(float) != 0 ||
               count != payload / sizeof(float))) {
      std::fprintf(stderr,
                   "load_floats: %s declares %llu floats but holds %llu "
                   "payload bytes\n",
                   path.c_str(), static_cast<unsigned long long>(count),
                   static_cast<unsigned long long>(payload));
      ok = false;
    }
  }
  if (ok) {
    out->resize(count);
    if (count > 0)
      ok = std::fread(out->data(), sizeof(float), count, f) == count;
  }
  std::fclose(f);
  return ok;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

bool file_exists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::is_regular_file(path, ec);
}

bool make_dirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return !ec;
}

}  // namespace ada
