/* poll(2) readiness for Sbi_serve.Evloop, plus the small rlimit helper
   the connection front end needs.

   Why not Unix.select: fd_set is a fixed bitmap of FD_SETSIZE (1024)
   descriptors, and OCaml's Unix.select raises once any watched fd crosses
   that bound — a server holding thousands of connections cannot use it for
   accept readiness, connect deadlines, or the group-commit self-pipe.
   poll(2) takes an explicit array and has no such ceiling.

   The runtime lock is released around the poll syscall so a loop domain
   parked in poll never blocks another domain's GC. */

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/threads.h>
#include <errno.h>
#include <poll.h>
#include <stdlib.h>
#include <sys/resource.h>
#include <sys/types.h>

/* Event bits shared with Evloop: 1 = readable, 2 = writable,
   4 = error/hangup/invalid.  Revents are written back into the events
   array in place; the return value is poll's ready count, or -1 for
   EINTR (the caller decides how much timeout budget remains). */
CAMLprim value sbi_serve_poll(value vfds, value vevents, value vtimeout)
{
  CAMLparam3(vfds, vevents, vtimeout);
  mlsize_t n = Wosize_val(vfds);
  int timeout = Int_val(vtimeout);
  struct pollfd *pfds = NULL;
  mlsize_t i;
  int r;

  if (Wosize_val(vevents) != n)
    caml_invalid_argument("Evloop.poll: fds/events length mismatch");
  if (n > 0) {
    pfds = malloc(n * sizeof(struct pollfd));
    if (pfds == NULL) caml_raise_out_of_memory();
    for (i = 0; i < n; i++) {
      int ev = Int_val(Field(vevents, i));
      pfds[i].fd = Int_val(Field(vfds, i));
      pfds[i].events =
          (short)(((ev & 1) ? POLLIN : 0) | ((ev & 2) ? POLLOUT : 0));
      pfds[i].revents = 0;
    }
  }
  caml_release_runtime_system();
  r = poll(pfds, (nfds_t)n, timeout);
  caml_acquire_runtime_system();
  if (r < 0) {
    int e = errno;
    free(pfds);
    if (e == EINTR) CAMLreturn(Val_int(-1));
    caml_failwith("Evloop.poll: poll(2) failed");
  }
  for (i = 0; i < n; i++) {
    short re = pfds[i].revents;
    int out = ((re & POLLIN) ? 1 : 0) | ((re & POLLOUT) ? 2 : 0) |
              ((re & (POLLERR | POLLHUP | POLLNVAL)) ? 4 : 0);
    Field(vevents, i) = Val_int(out);
  }
  free(pfds);
  CAMLreturn(Val_int(r));
}

/* RLIMIT_NOFILE: req < 0 queries; req >= 0 sets the soft limit to
   min(req, hard).  Returns (soft, hard), -1 meaning unlimited.  The
   connection-scale tests and bench raise the ceiling before opening
   thousands of sockets, and the fd-exhaustion regression test lowers it
   to force accept(2) into EMFILE. */
CAMLprim value sbi_serve_nofile(value vreq)
{
  CAMLparam1(vreq);
  CAMLlocal1(res);
  struct rlimit rl;
  long req = Long_val(vreq);
  long soft, hard;

  if (getrlimit(RLIMIT_NOFILE, &rl) != 0) caml_failwith("getrlimit(NOFILE)");
  if (req >= 0) {
    rlim_t want = (rlim_t)req;
    if (rl.rlim_max != RLIM_INFINITY && want > rl.rlim_max) want = rl.rlim_max;
    rl.rlim_cur = want;
    (void)setrlimit(RLIMIT_NOFILE, &rl);
    if (getrlimit(RLIMIT_NOFILE, &rl) != 0) caml_failwith("getrlimit(NOFILE)");
  }
  soft = (rl.rlim_cur == RLIM_INFINITY) ? -1 : (long)rl.rlim_cur;
  hard = (rl.rlim_max == RLIM_INFINITY) ? -1 : (long)rl.rlim_max;
  res = caml_alloc_tuple(2);
  Store_field(res, 0, Val_long(soft));
  Store_field(res, 1, Val_long(hard));
  CAMLreturn(res);
}
