#include "traced_env.h"

#include <thread>

#include "trace.h"

namespace perfbench {

using pitree::Slice;
using pitree::Status;

namespace {

Status PowerCut() { return Status::IOError("power cut"); }

}  // namespace

class TracedFile : public pitree::File {
 public:
  TracedFile(TracedEnv* env, std::unique_ptr<pitree::File> base)
      : env_(env), base_(std::move(base)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    if (!env_->Enter()) return PowerCut();
    Status s;
    {
      ScopedSpan span(kEnvRead);
      s = base_->Read(offset, n, result, scratch);
    }
    env_->reads_.fetch_add(1, std::memory_order_relaxed);
    env_->Leave();
    return s;
  }

  Status Write(uint64_t offset, const Slice& data) override {
    if (!env_->Enter()) return PowerCut();
    Status s;
    {
      ScopedSpan span(kEnvWrite);
      s = base_->Write(offset, data);
    }
    env_->bytes_written_.fetch_add(data.size(), std::memory_order_relaxed);
    env_->Leave();
    return s;
  }

  Status Sync() override {
    if (!env_->Enter()) return PowerCut();
    Status s;
    {
      ScopedSpan span(kEnvSync);
      s = base_->Sync();
    }
    env_->syncs_.fetch_add(1, std::memory_order_relaxed);
    env_->Leave();
    return s;
  }

  uint64_t Size() const override { return base_->Size(); }

  Status Truncate(uint64_t size) override {
    if (!env_->Enter()) return PowerCut();
    Status s = base_->Truncate(size);
    env_->Leave();
    return s;
  }

 private:
  TracedEnv* const env_;
  std::unique_ptr<pitree::File> base_;
};

bool TracedEnv::Enter() {
  // Sequentially consistent on both sides (see Crash): a call either sees
  // the cut, or is counted before Crash() starts waiting for it.
  inflight_.fetch_add(1);
  if (dead_.load()) {
    inflight_.fetch_sub(1);
    return false;
  }
  return true;
}

void TracedEnv::Crash() {
  dead_.store(true);
  while (inflight_.load() != 0) std::this_thread::yield();
  base_->Crash();
}

Status TracedEnv::OpenFile(const std::string& name,
                           std::unique_ptr<pitree::File>* file) {
  if (!Enter()) return PowerCut();
  std::unique_ptr<pitree::File> base;
  Status s;
  bool created = !base_->FileExists(name);
  {
    ScopedSpan span(kEnvOpen);
    s = base_->OpenFile(name, &base);
  }
  if (s.ok()) {
    if (created) files_created_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(names_mu_);
    files_.insert(name);
    *file = std::make_unique<TracedFile>(this, std::move(base));
  }
  Leave();
  return s;
}

bool TracedEnv::FileExists(const std::string& name) const {
  return base_->FileExists(name);
}

Status TracedEnv::DeleteFile(const std::string& name) {
  if (!Enter()) return PowerCut();
  Status s;
  {
    ScopedSpan span(kEnvDelete);
    s = base_->DeleteFile(name);
  }
  if (s.ok()) {
    files_deleted_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(names_mu_);
    files_.erase(name);
    atomic_files_.erase(name);
  }
  Leave();
  return s;
}

Status TracedEnv::WriteFileAtomic(const std::string& name, const Slice& data) {
  if (!Enter()) return PowerCut();
  Status s;
  bool created = !base_->FileExists(name);
  {
    ScopedSpan span(kEnvWriteAtomic);
    s = base_->WriteFileAtomic(name, data);
  }
  if (s.ok()) {
    if (created) files_created_.fetch_add(1, std::memory_order_relaxed);
    atomic_writes_.fetch_add(1, std::memory_order_relaxed);
    bytes_written_.fetch_add(data.size(), std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(names_mu_);
    atomic_files_.insert(name);
  }
  Leave();
  return s;
}

Status TracedEnv::ReadFileToString(const std::string& name,
                                   std::string* data) {
  if (!Enter()) return PowerCut();
  Status s = base_->ReadFileToString(name, data);
  Leave();
  return s;
}

EnvCounters TracedEnv::counters() const {
  EnvCounters c;
  c.reads = reads_.load(std::memory_order_relaxed);
  c.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  c.syncs = syncs_.load(std::memory_order_relaxed);
  c.atomic_writes = atomic_writes_.load(std::memory_order_relaxed);
  c.files_created = files_created_.load(std::memory_order_relaxed);
  c.files_deleted = files_deleted_.load(std::memory_order_relaxed);
  return c;
}

uint64_t TracedEnv::LiveFileBytes() {
  std::set<std::string> files, atomic_files;
  {
    std::lock_guard<std::mutex> lk(names_mu_);
    files = files_;
    atomic_files = atomic_files_;
  }
  uint64_t total = 0;
  for (const auto& name : files) {
    std::unique_ptr<pitree::File> f;
    if (base_->OpenFile(name, &f).ok()) total += f->Size();
  }
  for (const auto& name : atomic_files) {
    if (files.count(name) != 0) continue;
    std::string data;
    if (base_->ReadFileToString(name, &data).ok()) total += data.size();
  }
  return total;
}

}  // namespace perfbench
