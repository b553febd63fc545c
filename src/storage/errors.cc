#include "storage/errors.h"

#include "storage/block_device.h"

namespace deepnote::storage {

const char* disk_op_name(DiskOpKind kind) {
  switch (kind) {
    case DiskOpKind::kRead: return "read";
    case DiskOpKind::kWrite: return "write";
    case DiskOpKind::kFlush: return "flush";
  }
  return "op?";
}

const char* errno_name(Errno e) {
  switch (e) {
    case Errno::kOk: return "OK";
    case Errno::kENOENT: return "ENOENT";
    case Errno::kEIO: return "EIO";
    case Errno::kEBADF: return "EBADF";
    case Errno::kEAGAIN: return "EAGAIN";
    case Errno::kEEXIST: return "EEXIST";
    case Errno::kENOTDIR: return "ENOTDIR";
    case Errno::kEISDIR: return "EISDIR";
    case Errno::kEINVAL: return "EINVAL";
    case Errno::kENOSPC: return "ENOSPC";
    case Errno::kEROFS: return "EROFS";
    case Errno::kENAMETOOLONG: return "ENAMETOOLONG";
    case Errno::kENOTEMPTY: return "ENOTEMPTY";
  }
  return "E?";
}

}  // namespace deepnote::storage
