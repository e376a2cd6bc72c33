#include "util/fault.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <typeinfo>

#include <cxxabi.h>

namespace rdcn {

DeadlineWatchdog::DeadlineWatchdog() : thread_([this] { loop(); }) {}

DeadlineWatchdog::~DeadlineWatchdog() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

DeadlineWatchdog::Guard& DeadlineWatchdog::Guard::operator=(Guard&& other) noexcept {
  if (this != &other) {
    disarm();
    watchdog_ = other.watchdog_;
    id_ = other.id_;
    other.watchdog_ = nullptr;
  }
  return *this;
}

void DeadlineWatchdog::Guard::disarm() {
  if (watchdog_ != nullptr) {
    watchdog_->remove(id_);
    watchdog_ = nullptr;
  }
}

DeadlineWatchdog::Guard DeadlineWatchdog::arm(CancelToken& token, double delay_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(std::max(delay_ms, 0.0)));
  std::uint64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    id = next_id_++;
    entries_.push_back(Entry{id, deadline, &token});
  }
  wake_.notify_all();
  return Guard(this, id);
}

void DeadlineWatchdog::remove(std::uint64_t id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].id == id) {
      entries_.erase(entries_.begin() +
                     static_cast<std::vector<Entry>::difference_type>(i));
      break;
    }
  }
}

void DeadlineWatchdog::loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    if (entries_.empty()) {
      wake_.wait(lock);
      continue;
    }
    auto earliest = std::min_element(
        entries_.begin(), entries_.end(),
        [](const Entry& a, const Entry& b) { return a.deadline < b.deadline; });
    const auto now = std::chrono::steady_clock::now();
    if (earliest->deadline <= now) {
      // Cancel under the mutex: a concurrent Guard::disarm blocks until
      // this store finishes, so the token outlives the access.
      earliest->token->cancel();
      entries_.erase(earliest);
      continue;
    }
    // Copy the deadline: wait_until releases the mutex, and an arm() in
    // that window may reallocate entries_ under the reference.
    const auto deadline = earliest->deadline;
    wake_.wait_until(lock, deadline);
  }
}

double backoff_delay_ms(double base_ms, int attempt, double cap_ms) {
  double delay = std::max(base_ms, 0.0);
  for (int i = 1; i < attempt && delay < cap_ms; ++i) delay *= 2.0;
  return std::min(delay, cap_ms);
}

bool is_transient_failure(const std::exception_ptr& failure) {
  if (!failure) return false;
  try {
    std::rethrow_exception(failure);
  } catch (const TransientError&) {
    return true;
  } catch (...) {
    return false;
  }
}

namespace {

std::string demangled_name(const std::type_info& info) {
  int status = 0;
  const std::unique_ptr<char, void (*)(void*)> demangled(
      abi::__cxa_demangle(info.name(), nullptr, nullptr, &status), std::free);
  return (status == 0 && demangled) ? std::string(demangled.get())
                                    : std::string(info.name());
}

}  // namespace

FailureInfo describe_failure(const std::exception_ptr& failure) {
  FailureInfo info;
  if (!failure) {
    info.type = "none";
    return info;
  }
  try {
    std::rethrow_exception(failure);
  } catch (const std::exception& error) {
    info.type = demangled_name(typeid(error));
    info.message = error.what();
  } catch (...) {
    info.type = "unknown";
    info.message = "non-standard exception";
  }
  return info;
}

}  // namespace rdcn
