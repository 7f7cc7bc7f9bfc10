#include "src/core/config.h"

namespace qsys {

const char* SharingConfigName(SharingConfig c) {
  switch (c) {
    case SharingConfig::kAtcCq:
      return "ATC-CQ";
    case SharingConfig::kAtcUq:
      return "ATC-UQ";
    case SharingConfig::kAtcFull:
      return "ATC-FULL";
    case SharingConfig::kAtcCl:
      return "ATC-CL";
  }
  return "?";
}

}  // namespace qsys
