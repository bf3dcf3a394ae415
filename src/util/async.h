// One idiom for asynchronous loops.
//
// Much of the kernel is a sequence of steps where a step may finish in a
// completion callback before the next one starts: flush a dirty segment,
// export an open stream, fetch a block run, unlink a checkpoint file.
// util::async_loop(body) runs body(i, next) for i = 0, 1, ...:
//   - calling next(), at once or from a completion callback, runs step i + 1;
//   - returning without calling next() (and without handing it to a pending
//     callback) ends the loop.
// The body lives in state owned only by the copies of `next` (and the step
// that is running). It is freed when the loop ends or when the last pending
// callback holding a `next` is dropped; the body never refers to itself, so
// no cycle can form. A synchronous next() recurses, exactly as a
// hand-written loop would, so a loop written this way adds no event.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

namespace sprite::util {

template <typename Body>
void async_loop(Body body) {
  struct Next {
    std::shared_ptr<Body> body;
    std::size_t i;
    void operator()() const {
      // Hold the state for the whole step: the body may hand its `next` to
      // a callback that is dropped before the step returns.
      const std::shared_ptr<Body> keep = body;
      (*keep)(i, Next{keep, i + 1});
    }
  };
  Next{std::make_shared<Body>(std::move(body)), 0}();
}

}  // namespace sprite::util
