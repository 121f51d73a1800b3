(* VX86 Linux-flavoured syscall ABI.

   Numbers follow x86-64 Linux where an equivalent exists. Arguments are
   passed in RDI, RSI, RDX, R10, R8, R9; the number in RAX; the result in
   RAX (negative errno on failure) — exactly the convention ELFie startup
   code and workload programs are generated against.

   The 4096+ range holds the virtual performance-counter interface that
   stands in for perf_event_open: real ELFies program hardware counters
   from their callback routines; ours issue these syscalls. *)

let sys_read = 0
let sys_write = 1
let sys_open = 2
let sys_close = 3
let sys_lseek = 8
let sys_mmap = 9
let sys_mprotect = 10
let sys_munmap = 11
let sys_brk = 12
let sys_dup = 32
let sys_dup2 = 33
let sys_getpid = 39
let sys_clone = 56
let sys_exit = 60
let sys_gettimeofday = 96
let sys_arch_prctl = 158
let sys_gettid = 186
let sys_time = 201
let sys_exit_group = 231
let sys_getrandom = 318

(* Virtual perf-counter extension. *)
let sys_vperf_arm = 4096  (* rdi = retired-instruction target; graceful exit *)
let sys_vperf_read = 4097  (* -> retired instructions of calling thread *)
let sys_vperf_cycles = 4098  (* -> cycle count of calling thread *)
let sys_thread_alive = 4099  (* rdi = tid; -> 1 if runnable, else 0 *)
let sys_vperf_mark = 4100  (* rdi = instructions until a counter snapshot *)

(* open(2) flags. *)
let o_rdonly = 0
let o_wronly = 1
let o_rdwr = 2
let o_creat = 0x40
let o_trunc = 0x200

(* lseek whence. *)
let seek_set = 0
let seek_cur = 1
let seek_end = 2

(* mmap flags. *)
let map_fixed = 0x10

(* arch_prctl codes. *)
let arch_set_gs = 0x1001
let arch_set_fs = 0x1002

(* errno values (returned negated). *)
let enoent = 2
let ebadf = 9
let enomem = 12
let efault = 14
let einval = 22

(* System calls whose structural side effects (address-space or thread
   changes) must be re-executed even during constrained replay; data
   syscalls are skipped and injected instead. *)
let reexecute_on_replay nr =
  nr = sys_mmap || nr = sys_munmap || nr = sys_mprotect || nr = sys_brk
  || nr = sys_clone || nr = sys_exit || nr = sys_exit_group
  || nr >= sys_vperf_arm

(* Synthetic ring-0 cost (instructions) of handling each syscall; stands
   in for the kernel-code footprint observed in full-system simulation. *)
let ring0_instructions nr ~bytes =
  let base =
    match nr with
    | 0 | 1 -> 900 (* read/write *)
    | 2 -> 1400 (* open: path walk *)
    | 3 -> 300
    | 8 -> 250
    | 9 | 11 | 10 -> 800 (* mm operations *)
    | 12 -> 450
    | 32 | 33 -> 350
    | 56 -> 2600 (* clone *)
    | 60 | 231 -> 1200
    | 96 | 201 -> 150
    | 158 | 186 | 39 -> 120
    | 318 -> 500
    | _ -> 100
  in
  base + (bytes / 8)
