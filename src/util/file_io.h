// Minimal binary serialization used by the model cache: benches train a
// detector once and reuse the weights across binaries via files keyed by a
// configuration hash.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ada {

/// Writes a float vector with a small header (magic + count). Returns false
/// on I/O failure.
bool save_floats(const std::string& path, const std::vector<float>& data);

/// Reads a float vector written by save_floats. Returns false on failure or
/// malformed file; a header count that disagrees with the payload size is
/// rejected with one stderr line before anything is allocated.
bool load_floats(const std::string& path, std::vector<float>* out);

/// FNV-1a over a string; used to key cached model files by config.
std::uint64_t fnv1a(const std::string& s);

/// True if the path exists and is a regular file.
bool file_exists(const std::string& path);

/// Creates the directory (and parents). Returns false on failure.
bool make_dirs(const std::string& path);

}  // namespace ada
