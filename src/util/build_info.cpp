#include "util/build_info.hpp"

#include "util/journal.hpp"

#ifndef SYSECO_GIT_HASH
#define SYSECO_GIT_HASH "unknown"
#endif
#ifndef SYSECO_BUILD_TYPE
#define SYSECO_BUILD_TYPE "unknown"
#endif
#ifndef SYSECO_SANITIZE_MODE
#define SYSECO_SANITIZE_MODE "OFF"
#endif

namespace syseco {

const BuildInfo& buildInfo() {
  static const BuildInfo info{SYSECO_GIT_HASH, __VERSION__, SYSECO_BUILD_TYPE,
                              SYSECO_SANITIZE_MODE};
  return info;
}

std::string buildInfoLine() {
  const BuildInfo& b = buildInfo();
  return "syseco " + b.gitHash + " (" + b.buildType +
         ", sanitize=" + b.sanitizer + ") " + b.compiler;
}

std::string buildInfoJson(const std::string& indent) {
  const BuildInfo& b = buildInfo();
  std::string j = "{\n";
  j += indent + "  \"git_hash\": \"" + jsonEscape(b.gitHash) + "\",\n";
  j += indent + "  \"compiler\": \"" + jsonEscape(b.compiler) + "\",\n";
  j += indent + "  \"build_type\": \"" + jsonEscape(b.buildType) + "\",\n";
  j += indent + "  \"sanitizer\": \"" + jsonEscape(b.sanitizer) + "\"\n";
  j += indent + "}";
  return j;
}

}  // namespace syseco
