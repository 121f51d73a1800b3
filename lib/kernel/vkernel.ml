open Elfie_isa
open Elfie_machine

type config = {
  stack_randomization : bool;
  kernel_cost : bool;
  seed : int64;
  initial_cwd : string;
}

let default_config =
  { stack_randomization = true; kernel_cost = true; seed = 1L; initial_cwd = "/" }

type fd_target = Console | File of { path : string; mutable pos : int }

type syscall_record = {
  rec_tid : int;
  rec_nr : int;
  rec_args : int64 array;
  rec_path : string option;
  rec_ret : int64;
  rec_writes : (int64 * string) list;
  rec_reexec : bool;
}

type t = {
  cfg : config;
  fs : Fs.t;
  fds : (int, fd_target) Hashtbl.t;
  mutable cwd : string;
  mutable brk : int64;
  mutable next_mmap : int64;
  stdout_buf : Buffer.t;
  rng : Elfie_util.Rng.t;
  stack_offset : int64;
  mutable recorder : (syscall_record -> unit) option;
}

let create ?(config = default_config) fs =
  let rng = Elfie_util.Rng.create config.seed in
  let stack_offset =
    if config.stack_randomization then
      Int64.of_int (Elfie_util.Rng.int rng 256 * Addr_space.page_size)
    else 0L
  in
  let fds = Hashtbl.create 16 in
  Hashtbl.replace fds 0 Console;
  Hashtbl.replace fds 1 Console;
  Hashtbl.replace fds 2 Console;
  {
    cfg = config;
    fs;
    fds;
    cwd = config.initial_cwd;
    brk = 0L;
    next_mmap = 0x7f00_0000_0000L;
    stdout_buf = Buffer.create 256;
    rng;
    stack_offset;
    recorder = None;
  }

let fs t = t.fs
let cwd t = t.cwd
let stdout_contents t = Buffer.contents t.stdout_buf
let brk t = t.brk
let force_brk t v = t.brk <- v

type fd_state = Fd_console | Fd_file of { path : string; pos : int }

let fd_table t =
  Hashtbl.fold
    (fun fd target acc ->
      let state =
        match target with
        | Console -> Fd_console
        | File f -> Fd_file { path = f.path; pos = f.pos }
      in
      (fd, state) :: acc)
    t.fds []
  |> List.sort compare

let set_fd t fd state =
  Hashtbl.replace t.fds fd
    (match state with
    | Fd_console -> Console
    | Fd_file { path; pos } -> File { path; pos })

let set_recorder t r = t.recorder <- r
let stack_random_offset t = t.stack_offset

(* Independent clone for machine forks: the filesystem, FD table (fresh
   [File] records — positions are mutable), output buffer, heap/mmap
   cursors, syscall RNG (at its exact stream position) and tallies are
   all duplicated. The stack offset is preserved verbatim rather than
   re-drawn — the forked machine's stack is already laid out. The
   recorder is not carried over; re-attach one if the fork is logged.
   The clone is not yet installed on any machine: call {!install} with
   the forked machine. *)
let fork t =
  let fds = Hashtbl.create (max 16 (Hashtbl.length t.fds)) in
  Hashtbl.iter
    (fun fd target ->
      Hashtbl.replace fds fd
        (match target with
        | Console -> Console
        | File f -> File { path = f.path; pos = f.pos }))
    t.fds;
  let stdout_buf = Buffer.create (max 256 (Buffer.length t.stdout_buf)) in
  Buffer.add_buffer stdout_buf t.stdout_buf;
  {
    cfg = t.cfg;
    fs = Fs.copy t.fs;
    fds;
    cwd = t.cwd;
    brk = t.brk;
    next_mmap = t.next_mmap;
    stdout_buf;
    rng = Elfie_util.Rng.copy t.rng;
    stack_offset = t.stack_offset;
    recorder = None;
  }

let lowest_free_fd t =
  let rec go fd = if Hashtbl.mem t.fds fd then go (fd + 1) else fd in
  go 0

let err e = Int64.of_int (-e)

let read_cstring m addr =
  let buf = Buffer.create 32 in
  let rec go a n =
    if n > 4096 then Buffer.contents buf
    else
      let b = Int64.to_int (Addr_space.read (Machine.mem m) a 1) in
      if b = 0 then Buffer.contents buf
      else begin
        Buffer.add_char buf (Char.chr b);
        go (Int64.add a 1L) (n + 1)
      end
  in
  go addr 0

(* Clock: 3 GHz over the wall-clock proxy, starting at a fixed epoch. *)
let epoch = 1_600_000_000L
let cycles_per_sec = 3_000_000_000L

let now_parts m =
  let c = Machine.elapsed_cycles m in
  let sec = Int64.add epoch (Int64.div c cycles_per_sec) in
  let usec = Int64.div (Int64.rem c cycles_per_sec) 3_000L in
  (sec, usec)

(* Whether every byte of [addr, addr + len) is mapped in [m]. *)
let mapped_range m addr len =
  let rec go a left =
    left <= 0
    || Addr_space.is_mapped (Machine.mem m) a
       &&
       let step =
         Addr_space.page_size - (Int64.to_int a land (Addr_space.page_size - 1))
       in
       go (Int64.add a (Int64.of_int step)) (left - step)
  in
  go addr len

let handle t m tid =
  let th = Machine.thread m tid in
  let ctx = th.ctx in
  let get r = Context.get ctx r in
  let nr = Int64.to_int (get Reg.RAX) in
  let a0 = get Reg.RDI
  and a1 = get Reg.RSI
  and a2 = get Reg.RDX
  and _a3 = get Reg.R10 in
  let args = [| a0; a1; a2; _a3; get Reg.R8; get Reg.R9 |] in
  let path_arg = ref None in
  let writes = ref [] in
  let moved_bytes = ref 0 in
  (* Copy-out into user memory. It never maps a page: a call whose
     destination has a hole checks [mapped_range] first and fails with
     EFAULT, writing and recording nothing. *)
  let kwrite addr s =
    Addr_space.write_bytes (Machine.mem m) addr (Bytes.of_string s);
    writes := (addr, s) :: !writes;
    moved_bytes := !moved_bytes + String.length s
  in
  let kwrite_u64 addr v =
    let w = Elfie_util.Byteio.Writer.create ~capacity:8 () in
    Elfie_util.Byteio.Writer.u64 w v;
    kwrite addr (Bytes.to_string (Elfie_util.Byteio.Writer.contents w))
  in
  let ret =
    match nr with
    | _ when nr = Abi.sys_read -> (
        let fd = Int64.to_int a0 and count = Int64.to_int a2 in
        match Hashtbl.find_opt t.fds fd with
        | None -> err Abi.ebadf
        | Some Console -> 0L (* EOF on stdin *)
        | Some (File f) -> (
            match Fs.read_at t.fs f.path ~pos:f.pos ~len:count with
            | None -> err Abi.ebadf
            | Some data ->
                let n = String.length data in
                if n > 0 && not (mapped_range m a1 n) then err Abi.efault
                else begin
                  f.pos <- f.pos + n;
                  if n > 0 then kwrite a1 data;
                  Int64.of_int n
                end))
    | _ when nr = Abi.sys_write -> (
        let fd = Int64.to_int a0 and count = Int64.to_int a2 in
        match Hashtbl.find_opt t.fds fd with
        | None -> err Abi.ebadf
        | Some target -> (
            match Addr_space.read_bytes (Machine.mem m) a1 count with
            | exception Addr_space.Fault _ -> err Abi.efault
            | data ->
                moved_bytes := !moved_bytes + count;
                (match target with
                | Console ->
                    Buffer.add_bytes t.stdout_buf data;
                    Int64.of_int count
                | File f -> (
                    match Fs.write_at t.fs f.path ~pos:f.pos (Bytes.to_string data) with
                    | None -> err Abi.ebadf
                    | Some n ->
                        f.pos <- f.pos + n;
                        Int64.of_int n))))
    | _ when nr = Abi.sys_open ->
        let path = Fs.normalize ~cwd:t.cwd (read_cstring m a0) in
        path_arg := Some path;
        let flags = Int64.to_int a1 in
        let exists = Fs.exists t.fs path in
        if (not exists) && flags land Abi.o_creat = 0 then err Abi.enoent
        else begin
          if (not exists) || flags land Abi.o_trunc <> 0 then
            Fs.add_file t.fs ~path "";
          let fd = lowest_free_fd t in
          Hashtbl.replace t.fds fd (File { path; pos = 0 });
          Int64.of_int fd
        end
    | _ when nr = Abi.sys_close ->
        let fd = Int64.to_int a0 in
        if Hashtbl.mem t.fds fd then begin
          Hashtbl.remove t.fds fd;
          0L
        end
        else err Abi.ebadf
    | _ when nr = Abi.sys_lseek -> (
        let fd = Int64.to_int a0 in
        match Hashtbl.find_opt t.fds fd with
        | Some (File f) ->
            let size =
              Option.value ~default:0 (Fs.file_size t.fs f.path)
            in
            let base =
              let whence = Int64.to_int a2 in
              if whence = Abi.seek_set then 0
              else if whence = Abi.seek_cur then f.pos
              else if whence = Abi.seek_end then size
              else -1
            in
            if base < 0 then err Abi.einval
            else begin
              let pos = base + Int64.to_int a1 in
              if pos < 0 then err Abi.einval
              else begin
                f.pos <- pos;
                Int64.of_int pos
              end
            end
        | Some Console -> err Abi.einval
        | None -> err Abi.ebadf)
    | _ when nr = Abi.sys_mmap ->
        let len = Int64.to_int a1 in
        if len <= 0 then err Abi.einval
        else
          let fixed = Int64.to_int _a3 land Abi.map_fixed <> 0 in
          let addr =
            if fixed || a0 <> 0L then a0
            else begin
              let a = t.next_mmap in
              let pages = (len + Addr_space.page_size - 1) / Addr_space.page_size in
              t.next_mmap <-
                Int64.add t.next_mmap
                  (Int64.of_int ((pages + 1) * Addr_space.page_size));
              a
            end
          in
          Addr_space.map (Machine.mem m) ~addr ~len;
          addr
    | _ when nr = Abi.sys_munmap ->
        Addr_space.unmap (Machine.mem m) ~addr:a0 ~len:(Int64.to_int a1);
        0L
    | _ when nr = Abi.sys_mprotect -> 0L
    | _ when nr = Abi.sys_brk ->
        if a0 = 0L then t.brk
        else begin
          if Int64.unsigned_compare a0 t.brk > 0 then
            Addr_space.map (Machine.mem m) ~addr:t.brk
              ~len:(Int64.to_int (Int64.sub a0 t.brk));
          t.brk <- a0;
          t.brk
        end
    | _ when nr = Abi.sys_dup -> (
        let fd = Int64.to_int a0 in
        match Hashtbl.find_opt t.fds fd with
        | None -> err Abi.ebadf
        | Some target ->
            let nfd = lowest_free_fd t in
            Hashtbl.replace t.fds nfd target;
            Int64.of_int nfd)
    | _ when nr = Abi.sys_dup2 -> (
        let fd = Int64.to_int a0 and nfd = Int64.to_int a1 in
        match Hashtbl.find_opt t.fds fd with
        | None -> err Abi.ebadf
        | Some target ->
            Hashtbl.replace t.fds nfd target;
            Int64.of_int nfd)
    | _ when nr = Abi.sys_getpid -> 1000L
    | _ when nr = Abi.sys_gettid -> Int64.of_int tid
    | _ when nr = Abi.sys_clone ->
        let child = Context.copy ctx in
        Context.set_rip child a0;
        Context.set child Reg.RSP a1;
        Context.set child Reg.RAX 0L;
        let child_tid = Machine.add_thread m child in
        Int64.of_int child_tid
    | _ when nr = Abi.sys_exit ->
        Machine.exit_thread m tid ~status:(Int64.to_int a0);
        0L
    | _ when nr = Abi.sys_exit_group ->
        Machine.exit_all m ~status:(Int64.to_int a0);
        0L
    | _ when nr = Abi.sys_gettimeofday ->
        let sec, usec = now_parts m in
        if a0 = 0L then 0L
        else if not (mapped_range m a0 16) then err Abi.efault
        else begin
          kwrite_u64 a0 sec;
          kwrite_u64 (Int64.add a0 8L) usec;
          0L
        end
    | _ when nr = Abi.sys_time ->
        let sec, _ = now_parts m in
        if a0 = 0L then sec
        else if not (mapped_range m a0 8) then err Abi.efault
        else begin
          kwrite_u64 a0 sec;
          sec
        end
    | _ when nr = Abi.sys_arch_prctl ->
        let code = Int64.to_int a0 in
        if code = Abi.arch_set_fs then begin
          ctx.Context.fs_base <- a1;
          0L
        end
        else if code = Abi.arch_set_gs then begin
          ctx.Context.gs_base <- a1;
          0L
        end
        else err Abi.einval
    | _ when nr = Abi.sys_getrandom ->
        let len = Int64.to_int a1 in
        if not (mapped_range m a0 len) then err Abi.efault
        else begin
          let buf = Bytes.create len in
          for i = 0 to len - 1 do
            Bytes.set buf i (Char.chr (Elfie_util.Rng.int t.rng 256))
          done;
          kwrite a0 (Bytes.to_string buf);
          Int64.of_int len
        end
    | _ when nr = Abi.sys_vperf_arm ->
        Machine.arm_counter m tid ~target:(Int64.add (Int64.of_int th.retired) a0);
        0L
    | _ when nr = Abi.sys_vperf_mark ->
        Machine.arm_mark m tid ~target:(Int64.add (Int64.of_int th.retired) a0);
        0L
    | _ when nr = Abi.sys_vperf_read -> Int64.of_int th.retired
    | _ when nr = Abi.sys_vperf_cycles -> Int64.of_int th.cycles
    | _ when nr = Abi.sys_thread_alive -> (
        match Machine.thread m (Int64.to_int a0) with
        | th' -> if th'.state = Runnable then 1L else 0L
        | exception Invalid_argument _ -> 0L)
    | _ -> err Abi.einval
  in
  Context.set ctx Reg.RAX ret;
  if t.cfg.kernel_cost then begin
    let instructions = Abi.ring0_instructions nr ~bytes:!moved_bytes in
    Machine.charge_ring0 m tid ~instructions ~cycles:instructions
  end;
  match t.recorder with
  | Some f ->
      f
        {
          rec_tid = tid;
          rec_nr = nr;
          rec_args = args;
          rec_path = !path_arg;
          rec_ret = ret;
          rec_writes = List.rev !writes;
          rec_reexec = Abi.reexecute_on_replay nr;
        }
  | None -> ()

let install t m = Machine.set_syscall_handler m (fun m tid -> handle t m tid)
