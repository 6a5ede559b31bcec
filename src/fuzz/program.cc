#include "fuzz/program.h"

#include <cassert>
#include <cstdio>
#include <sstream>

namespace cds::fuzz {

namespace {

constexpr const char* kLocNames[Program::kMaxLocations] = {"x", "y", "z", "w"};

bool parse_order(const std::string& s, mc::MemoryOrder* out) {
  using O = mc::MemoryOrder;
  if (s == "relaxed") *out = O::relaxed;
  else if (s == "acquire") *out = O::acquire;
  else if (s == "release") *out = O::release;
  else if (s == "acq_rel") *out = O::acq_rel;
  else if (s == "seq_cst") *out = O::seq_cst;
  else return false;
  return true;
}

int parse_loc(const std::string& s) {
  for (int i = 0; i < Program::kMaxLocations; ++i) {
    if (s == kLocNames[i]) return i;
  }
  return -1;
}

bool legal_load_order(mc::MemoryOrder o) {
  return o == mc::MemoryOrder::relaxed || o == mc::MemoryOrder::acquire ||
         o == mc::MemoryOrder::seq_cst;
}

bool legal_store_order(mc::MemoryOrder o) {
  return o == mc::MemoryOrder::relaxed || o == mc::MemoryOrder::release ||
         o == mc::MemoryOrder::seq_cst;
}

}  // namespace

const char* to_string(OpCode c) {
  switch (c) {
    case OpCode::kLoad: return "load";
    case OpCode::kStore: return "store";
    case OpCode::kRmwAdd: return "rmw";
    case OpCode::kCas: return "cas";
    case OpCode::kFence: return "fence";
  }
  return "?";
}

inject::OpKind Op::inject_kind() const {
  switch (code) {
    case OpCode::kLoad: return inject::OpKind::kLoad;
    case OpCode::kStore: return inject::OpKind::kStore;
    case OpCode::kRmwAdd:
    case OpCode::kCas: return inject::OpKind::kRmw;
    case OpCode::kFence: return inject::OpKind::kFence;
  }
  return inject::OpKind::kFence;
}

const char* Program::location_name(int loc) {
  return loc >= 0 && loc < kMaxLocations ? kLocNames[loc] : "?";
}

int Program::total_ops() const {
  int n = 0;
  for (const auto& t : ops) n += static_cast<int>(t.size());
  return n;
}

bool Program::sc_only() const {
  for (const auto& t : ops) {
    for (const Op& op : t) {
      if (op.order != mc::MemoryOrder::seq_cst) return false;
      if (op.code == OpCode::kCas && op.failure != mc::MemoryOrder::seq_cst)
        return false;
    }
  }
  return true;
}

bool Program::validate(std::string* why) const {
  auto fail = [&](const std::string& m) {
    if (why != nullptr) *why = m;
    return false;
  };
  if (locations < 1 || locations > kMaxLocations)
    return fail("locations out of range");
  if (ops.empty() || threads() > kMaxThreads)
    return fail("thread count out of range");
  for (int t = 0; t < threads(); ++t) {
    for (const Op& op : ops[static_cast<std::size_t>(t)]) {
      if (op.code != OpCode::kFence && op.loc >= locations)
        return fail("location index out of range");
      switch (op.code) {
        case OpCode::kLoad:
          if (!legal_load_order(op.order)) return fail("illegal load order");
          break;
        case OpCode::kStore:
          if (!legal_store_order(op.order)) return fail("illegal store order");
          break;
        case OpCode::kRmwAdd:
          break;  // every order is legal on an RMW
        case OpCode::kCas:
          if (!legal_load_order(op.failure))
            return fail("illegal cas failure order");
          break;
        case OpCode::kFence:
          if (op.order == mc::MemoryOrder::relaxed)
            return fail("relaxed fence is a no-op");
          break;
      }
    }
  }
  return true;
}

std::string Program::to_string() const {
  std::ostringstream os;
  os << "litmus v1\n";
  os << "locations " << locations << '\n';
  for (int t = 0; t < threads(); ++t) {
    for (const Op& op : ops[static_cast<std::size_t>(t)]) {
      os << 't' << t << ' ' << fuzz::to_string(op.code);
      switch (op.code) {
        case OpCode::kLoad:
          os << ' ' << location_name(op.loc) << ' ' << mc::to_string(op.order);
          break;
        case OpCode::kStore:
        case OpCode::kRmwAdd:
          os << ' ' << location_name(op.loc) << ' ' << op.value << ' '
             << mc::to_string(op.order);
          break;
        case OpCode::kCas:
          os << ' ' << location_name(op.loc) << ' ' << op.expected << ' '
             << op.value << ' ' << mc::to_string(op.order) << ' '
             << mc::to_string(op.failure);
          break;
        case OpCode::kFence:
          os << ' ' << mc::to_string(op.order);
          break;
      }
      os << '\n';
    }
  }
  return os.str();
}

bool Program::parse(const std::string& text, Program* out, std::string* err) {
  auto fail = [&](const std::string& m) {
    if (err != nullptr) *err = m;
    return false;
  };
  Program p;
  p.locations = 0;
  bool saw_header = false;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::vector<std::string> tok;
    for (std::string w; ls >> w;) tok.push_back(w);
    if (tok.empty()) continue;
    auto where = [&] { return " (line " + std::to_string(lineno) + ")"; };
    if (!saw_header) {
      if (tok.size() != 2 || tok[0] != "litmus" || tok[1] != "v1")
        return fail("expected 'litmus v1' header" + where());
      saw_header = true;
      continue;
    }
    if (tok[0] == "locations") {
      if (tok.size() != 2) return fail("locations wants a count" + where());
      p.locations = std::atoi(tok[1].c_str());
      continue;
    }
    if (tok[0].size() != 2 || tok[0][0] != 't' || tok[0][1] < '0' ||
        tok[0][1] > '3')
      return fail("expected t0..t3" + where());
    auto t = static_cast<std::size_t>(tok[0][1] - '0');
    if (p.ops.size() <= t) p.ops.resize(t + 1);
    Op op;
    if (tok.size() == 3 && tok[1] == "fence") {
      op.code = OpCode::kFence;
      if (!parse_order(tok[2], &op.order)) return fail("bad order" + where());
    } else if (tok.size() == 4 && tok[1] == "load") {
      op.code = OpCode::kLoad;
      int loc = parse_loc(tok[2]);
      if (loc < 0) return fail("bad location" + where());
      op.loc = static_cast<std::uint8_t>(loc);
      if (!parse_order(tok[3], &op.order)) return fail("bad order" + where());
    } else if (tok.size() == 5 && (tok[1] == "store" || tok[1] == "rmw")) {
      op.code = tok[1] == "store" ? OpCode::kStore : OpCode::kRmwAdd;
      int loc = parse_loc(tok[2]);
      if (loc < 0) return fail("bad location" + where());
      op.loc = static_cast<std::uint8_t>(loc);
      op.value = std::strtoull(tok[3].c_str(), nullptr, 10);
      if (!parse_order(tok[4], &op.order)) return fail("bad order" + where());
    } else if (tok.size() == 7 && tok[1] == "cas") {
      op.code = OpCode::kCas;
      int loc = parse_loc(tok[2]);
      if (loc < 0) return fail("bad location" + where());
      op.loc = static_cast<std::uint8_t>(loc);
      op.expected = std::strtoull(tok[3].c_str(), nullptr, 10);
      op.value = std::strtoull(tok[4].c_str(), nullptr, 10);
      if (!parse_order(tok[5], &op.order)) return fail("bad order" + where());
      if (!parse_order(tok[6], &op.failure))
        return fail("bad failure order" + where());
    } else {
      return fail("unrecognized op" + where());
    }
    p.ops[t].push_back(op);
  }
  if (!saw_header) return fail("empty program");
  std::string why;
  if (!p.validate(&why)) return fail(why);
  *out = p;
  return true;
}

mc::TestFn Program::test_fn(std::vector<std::uint64_t>* obs) const {
  assert(threads() <= kMaxThreads && locations <= kMaxLocations &&
         "test_fn needs a program that passes validate()");
  // Slot layout: thread-major, program order within a thread.
  std::vector<int> base(ops.size() + 1, 0);
  for (std::size_t t = 0; t < ops.size(); ++t) {
    base[t + 1] = base[t] + static_cast<int>(ops[t].size());
  }
  const int total = base.back();
  Program p = *this;  // the closure owns its own copy
  return [p = std::move(p), base = std::move(base), total,
          obs](mc::Exec& x) {
    obs->assign(static_cast<std::size_t>(total), 0);
    harness::Backend& e = x.backend();
    std::uint32_t locid[kMaxLocations] = {0, 0, 0, 0};
    for (int l = 0; l < p.locations; ++l) {
      locid[l] = e.new_location(location_name(l), /*initialized=*/true, 0);
    }
    auto run_thread = [&e, &p, &base, obs, &locid](std::size_t t) {
      const auto& list = p.ops[t];
      for (std::size_t i = 0; i < list.size(); ++i) {
        const Op& op = list[i];
        auto slot = static_cast<std::size_t>(base[t]) + i;
        switch (op.code) {
          case OpCode::kLoad:
            (*obs)[slot] = e.atomic_load(locid[op.loc], op.order);
            break;
          case OpCode::kStore:
            e.atomic_store(locid[op.loc], op.value, op.order);
            break;
          case OpCode::kRmwAdd:
            (*obs)[slot] = e.atomic_rmw(
                locid[op.loc], op.order,
                [](std::uint64_t a, std::uint64_t b) { return a + b; },
                op.value);
            break;
          case OpCode::kCas: {
            std::uint64_t seen = op.expected;
            (void)e.atomic_cas(locid[op.loc], seen, op.value, op.order,
                               op.failure);
            (*obs)[slot] = seen;  // the value the CAS read, success or not
            break;
          }
          case OpCode::kFence:
            e.atomic_thread_fence(op.order);
            break;
        }
      }
    };
    int tids[kMaxThreads];
    for (std::size_t t = 0; t < p.ops.size(); ++t) {
      tids[t] = x.spawn([&run_thread, t] { run_thread(t); });
    }
    for (std::size_t t = 0; t < p.ops.size(); ++t) x.join(tids[t]);
  };
}

}  // namespace cds::fuzz
