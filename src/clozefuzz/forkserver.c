/* Fork server for a dynamically linked compiler, in the manner of AFL's
   (Zalewski, "Fuzzing random programs without execve()", 2014).

   Loaded with LD_PRELOAD, it stands in for __libc_start_main, so it runs
   once the loader has mapped and relocated every library and each
   constructor has run, and before the compiler's main. A server is
   started with its control socket as stdin; the shim moves the socket to
   fd 198, puts /dev/null in its place for the compiles, sends its pid
   and serves requests, one compile at a time:

     'c' + two pipe fds     fork; the child makes its own process group,
                            takes the pipes as stdout and stderr, drops
                            LD_PRELOAD and LD_BIND_NOW from its
                            environment and returns into the compiler's
                            main; the child's pid is sent back
     'r'                    reap that child and send back its
                            raw wait status

   The child is reaped only when asked, so its process group cannot be
   reused before the caller has killed it. At end of file on the socket
   the server kills the running compile's group, reaps it and exits. A
   process whose stdin is not a socket runs the compiler as it is.

   Build: cc -shared -fPIC -O2 -o forkserver.so forkserver.c -ldl */

#define _GNU_SOURCE
#include <dlfcn.h>
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <stdlib.h>
#include <string.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#define CTL_FD 198

typedef int (*main_fn)(int, char **, char **);
typedef int (*start_fn)(main_fn, int, char **, void (*)(void), void (*)(void),
                        void (*)(void), void *);

static main_fn compiler_main;

/* One request: its op byte and up to two fds; returns the number of fds,
   or -1 at end of file or on error. */
static int request(char *op, int fds[2])
{
    char space[CMSG_SPACE(2 * sizeof(int))];
    struct iovec iov = {op, 1};
    struct msghdr msg = {0};
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    msg.msg_control = space;
    msg.msg_controllen = sizeof space;
    if (recvmsg(CTL_FD, &msg, MSG_CMSG_CLOEXEC) != 1)
        return -1;
    struct cmsghdr *c = CMSG_FIRSTHDR(&msg);
    if (c == NULL || c->cmsg_level != SOL_SOCKET || c->cmsg_type != SCM_RIGHTS)
        return 0;
    int n = (c->cmsg_len - CMSG_LEN(0)) / sizeof(int);
    memcpy(fds, CMSG_DATA(c), (n > 2 ? 2 : n) * sizeof(int));
    return n;
}

static int reply(int value)
{
    return send(CTL_FD, &value, sizeof value, MSG_NOSIGNAL) == sizeof value;
}

static void reap(pid_t pid, int *status)
{
    while (waitpid(pid, status, 0) < 0 && errno == EINTR)
        ;
}

static int serve(int argc, char **argv)
{
    pid_t server = getpid();
    if (!reply(server))
        _exit(0);
    for (;;) {
        char op;
        int fds[2];
        int n = request(&op, fds);
        if (n < 0)
            _exit(0);
        if (op != 'c' || n != 2)
            _exit(1);
        pid_t pid = fork();
        if (pid == 0) {
            setpgid(0, 0);
            /* a lost server must not leave its compile running */
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (getppid() != server)
                _exit(1);
            dup2(fds[0], 1);
            dup2(fds[1], 2);
            close(fds[0]);
            close(fds[1]);
            close(CTL_FD);
            unsetenv("LD_PRELOAD");
            unsetenv("LD_BIND_NOW");
            return compiler_main(argc, argv, environ);
        }
        close(fds[0]);
        close(fds[1]);
        if (pid < 0)
            _exit(1);
        /* either call may run first; both leave the child its own group */
        setpgid(pid, pid);
        int status = 0;
        if (!reply(pid) || recv(CTL_FD, &op, 1, 0) != 1) {
            kill(-pid, SIGKILL);
            reap(pid, &status);
            _exit(0);
        }
        reap(pid, &status);
        if (!reply(status))
            _exit(0);
    }
}

static int start(int argc, char **argv, char **envp)
{
    int type;
    socklen_t len = sizeof type;
    if (getsockopt(0, SOL_SOCKET, SO_TYPE, &type, &len) == 0) {
        int null = open("/dev/null", O_RDONLY);
        if (dup2(0, CTL_FD) != CTL_FD || null < 0 || dup2(null, 0) != 0)
            _exit(1);
        close(null);
        return serve(argc, argv);
    }
    unsetenv("LD_PRELOAD");
    unsetenv("LD_BIND_NOW");
    return compiler_main(argc, argv, envp);
}

int __libc_start_main(main_fn main, int argc, char **argv, void (*init)(void),
                      void (*fini)(void), void (*rtld_fini)(void), void *stack_end)
{
    start_fn next = (start_fn)dlsym(RTLD_NEXT, "__libc_start_main");
    compiler_main = main;
    return next(start, argc, argv, init, fini, rtld_fini, stack_end);
}
