(* Tests for the Vkernel: filesystem, system calls and the ELF loader. *)

open Elfie_isa
open Elfie_isa.Insn
open Elfie_kernel

(* --- fs -------------------------------------------------------------------- *)

let test_fs_normalize () =
  Alcotest.(check string) "relative" "/work/a.txt" (Fs.normalize ~cwd:"/work" "a.txt");
  Alcotest.(check string) "absolute" "/etc/x" (Fs.normalize ~cwd:"/work" "/etc/x");
  Alcotest.(check string) "dots and slashes" "/a/b"
    (Fs.normalize ~cwd:"/" "a//./b");
  Alcotest.(check string) "root" "/" (Fs.normalize ~cwd:"/" ".")

let test_fs_read_write_at () =
  let fs = Fs.create () in
  Fs.add_file fs ~path:"/f" "hello";
  Alcotest.(check (option string)) "read middle" (Some "ell")
    (Fs.read_at fs "/f" ~pos:1 ~len:3);
  Alcotest.(check (option string)) "read past end" (Some "")
    (Fs.read_at fs "/f" ~pos:10 ~len:3);
  Alcotest.(check (option int)) "write extends" (Some 3)
    (Fs.write_at fs "/f" ~pos:7 "xyz");
  Alcotest.(check (option int)) "new size" (Some 10) (Fs.file_size fs "/f");
  Alcotest.(check (option string)) "hole is zeroed" (Some "o\000\000x")
    (Fs.read_at fs "/f" ~pos:4 ~len:4);
  Alcotest.(check (option int)) "absent file" None (Fs.write_at fs "/g" ~pos:0 "a")

let test_fs_copy_isolated () =
  let fs = Fs.create () in
  Fs.add_file fs ~path:"/f" "abc";
  let c = Fs.copy fs in
  ignore (Fs.write_at fs "/f" ~pos:0 "zzz");
  Alcotest.(check (option string)) "copy unchanged" (Some "abc") (Fs.read_file c "/f")

(* --- syscalls -------------------------------------------------------------- *)

let mov_imm b r v = Builder.ins b (Mov_ri (r, v))

let syscall b nr =
  mov_imm b Reg.RAX (Int64.of_int nr);
  Builder.ins b Syscall

(* Program: open "in.txt", read 5 bytes, write them to stdout, lseek back,
   read again, write to a new file "out.txt", close everything, exit. *)
let file_program () =
  let b = Builder.create () in
  let path = Builder.new_label b in
  let out_path = Builder.new_label b in
  let buf = 0x60_0000L in
  (* open(in.txt, O_RDONLY) -> r12 *)
  Builder.mov_label b Reg.RDI path;
  mov_imm b Reg.RSI 0L;
  mov_imm b Reg.RDX 0L;
  syscall b Abi.sys_open;
  Builder.ins b (Mov_rr (Reg.R12, Reg.RAX));
  (* read(fd, buf, 5) *)
  Builder.ins b (Mov_rr (Reg.RDI, Reg.R12));
  mov_imm b Reg.RSI buf;
  mov_imm b Reg.RDX 5L;
  syscall b Abi.sys_read;
  (* write(1, buf, 5) *)
  mov_imm b Reg.RDI 1L;
  mov_imm b Reg.RSI buf;
  mov_imm b Reg.RDX 5L;
  syscall b Abi.sys_write;
  (* lseek(fd, 1, SEEK_SET); read 2; write to stdout *)
  Builder.ins b (Mov_rr (Reg.RDI, Reg.R12));
  mov_imm b Reg.RSI 1L;
  mov_imm b Reg.RDX (Int64.of_int Abi.seek_set);
  syscall b Abi.sys_lseek;
  Builder.ins b (Mov_rr (Reg.RDI, Reg.R12));
  mov_imm b Reg.RSI buf;
  mov_imm b Reg.RDX 2L;
  syscall b Abi.sys_read;
  mov_imm b Reg.RDI 1L;
  mov_imm b Reg.RSI buf;
  mov_imm b Reg.RDX 2L;
  syscall b Abi.sys_write;
  (* out = open("out.txt", O_CREAT|O_WRONLY); write(out, buf, 2); close *)
  Builder.mov_label b Reg.RDI out_path;
  mov_imm b Reg.RSI (Int64.of_int (Abi.o_creat lor Abi.o_wronly));
  mov_imm b Reg.RDX 0o644L;
  syscall b Abi.sys_open;
  Builder.ins b (Mov_rr (Reg.R13, Reg.RAX));
  Builder.ins b (Mov_rr (Reg.RDI, Reg.R13));
  mov_imm b Reg.RSI buf;
  mov_imm b Reg.RDX 2L;
  syscall b Abi.sys_write;
  Builder.ins b (Mov_rr (Reg.RDI, Reg.R13));
  syscall b Abi.sys_close;
  mov_imm b Reg.RDI 0L;
  syscall b Abi.sys_exit_group;
  Builder.bind b path;
  Builder.raw b (Bytes.of_string "in.txt\000");
  Builder.bind b out_path;
  Builder.raw b (Bytes.of_string "out.txt\000");
  b

let test_file_syscalls () =
  let image = Tutil.image_of ~data_section:(0x60_0000L, 4096) (file_program ()) in
  let machine, kernel =
    Tutil.run_image ~fs_init:(fun fs -> Fs.add_file fs ~path:"/in.txt" "abcdefgh") image
  in
  Alcotest.(check bool) "clean" true (Elfie_machine.Machine.all_exited_cleanly machine);
  Alcotest.(check string) "stdout" "abcdebc" (Vkernel.stdout_contents kernel);
  Alcotest.(check (option string)) "out.txt written" (Some "bc")
    (Fs.read_file (Vkernel.fs kernel) "/out.txt");
  Alcotest.(check bool) "counted" true (Vkernel.syscall_count kernel >= 8)

let test_enoent_and_ebadf () =
  let b = Builder.create () in
  let path = Builder.new_label b in
  Builder.mov_label b Reg.RDI path;
  mov_imm b Reg.RSI 0L;
  mov_imm b Reg.RDX 0L;
  syscall b Abi.sys_open;
  (* exit_group(-rax), i.e. the errno *)
  Builder.ins b (Mov_rr (Reg.RDI, Reg.RAX));
  Builder.ins b (Neg Reg.RDI);
  syscall b Abi.sys_exit_group;
  Builder.bind b path;
  Builder.raw b (Bytes.of_string "missing\000");
  let machine, _ = Tutil.run_image (Tutil.image_of b) in
  (match (Elfie_machine.Machine.thread machine 0).Elfie_machine.Machine.state with
  | Elfie_machine.Machine.Exited code ->
      Alcotest.(check int) "ENOENT" Abi.enoent code
  | _ -> Alcotest.fail "did not exit");
  let b = Builder.create () in
  mov_imm b Reg.RDI 55L;
  syscall b Abi.sys_close;
  Builder.ins b (Mov_rr (Reg.RDI, Reg.RAX));
  Builder.ins b (Neg Reg.RDI);
  syscall b Abi.sys_exit_group;
  let machine, _ = Tutil.run_image (Tutil.image_of b) in
  match (Elfie_machine.Machine.thread machine 0).Elfie_machine.Machine.state with
  | Elfie_machine.Machine.Exited code -> Alcotest.(check int) "EBADF" Abi.ebadf code
  | _ -> Alcotest.fail "did not exit"

let test_brk_extends_heap () =
  let b = Builder.create () in
  mov_imm b Reg.RDI 0L;
  syscall b Abi.sys_brk;
  Builder.ins b (Mov_rr (Reg.R12, Reg.RAX));
  Builder.ins b (Mov_rr (Reg.RDI, Reg.RAX));
  Builder.ins b (Alu_ri (Add, Reg.RDI, 8192L));
  syscall b Abi.sys_brk;
  (* Touch the new heap memory. *)
  mov_imm b Reg.RAX 77L;
  Builder.ins b (Store (W64, mem_base Reg.R12, Reg.RAX));
  Builder.ins b (Load (W64, Reg.RDI, mem_base Reg.R12));
  syscall b Abi.sys_exit_group;
  let machine, kernel = Tutil.run_image (Tutil.image_of b) in
  (match (Elfie_machine.Machine.thread machine 0).Elfie_machine.Machine.state with
  | Elfie_machine.Machine.Exited 77 -> ()
  | s ->
      Alcotest.failf "heap write failed: %s"
        (match s with
        | Elfie_machine.Machine.Exited n -> string_of_int n
        | Faulted f -> Format.asprintf "%a" Elfie_machine.Machine.pp_fault f
        | Runnable -> "runnable"));
  Alcotest.(check bool) "brk recorded" true (Vkernel.brk kernel > 0L)

let test_mmap_munmap () =
  let b = Builder.create () in
  mov_imm b Reg.RDI 0L;
  mov_imm b Reg.RSI 8192L;
  mov_imm b Reg.RDX 3L;
  mov_imm b Reg.R10 0L;
  syscall b Abi.sys_mmap;
  Builder.ins b (Mov_rr (Reg.R12, Reg.RAX));
  mov_imm b Reg.RAX 5L;
  Builder.ins b (Store (W64, mem_base Reg.R12, Reg.RAX));
  Builder.ins b (Mov_rr (Reg.RDI, Reg.R12));
  mov_imm b Reg.RSI 8192L;
  syscall b Abi.sys_munmap;
  (* Touching it again must fault. *)
  Builder.ins b (Load (W64, Reg.RBX, mem_base Reg.R12));
  mov_imm b Reg.RDI 0L;
  syscall b Abi.sys_exit_group;
  let machine, _ = Tutil.run_image (Tutil.image_of b) in
  match (Elfie_machine.Machine.thread machine 0).Elfie_machine.Machine.state with
  | Elfie_machine.Machine.Faulted (Elfie_machine.Machine.Page_fault _) -> ()
  | _ -> Alcotest.fail "expected fault after munmap"

let test_clone_and_gettid () =
  (* Parent clones a child that stores its gettid and exits; the parent
     spin-waits for the child then exits with the stored value. *)
  let b = Builder.create () in
  let child = Builder.new_label b in
  let slot = 0x60_0000L in
  Builder.mov_label b Reg.RDI child;
  mov_imm b Reg.RSI 0x60_1000L (* child stack top inside data section *);
  syscall b Abi.sys_clone;
  Builder.ins b (Mov_rr (Reg.RBX, Reg.RAX));
  (* wait for thread_alive(child)=0 *)
  let wait = Builder.here b in
  Builder.ins b Pause;
  Builder.ins b (Mov_rr (Reg.RDI, Reg.RBX));
  syscall b Abi.sys_thread_alive;
  Builder.ins b (Alu_ri (Cmp, Reg.RAX, 0L));
  Builder.jcc b Ne wait;
  Builder.ins b (Load (W64, Reg.RDI, mem_abs slot));
  syscall b Abi.sys_exit_group;
  Builder.bind b child;
  syscall b Abi.sys_gettid;
  Builder.ins b (Store (W64, mem_abs slot, Reg.RAX));
  mov_imm b Reg.RDI 0L;
  syscall b Abi.sys_exit;
  let image = Tutil.image_of ~data_section:(0x60_0000L, 8192) b in
  let machine, _ = Tutil.run_image ~max_ins:200_000L image in
  match (Elfie_machine.Machine.thread machine 0).Elfie_machine.Machine.state with
  | Elfie_machine.Machine.Exited tid ->
      Alcotest.(check int) "child tid is 1" 1 tid
  | _ -> Alcotest.fail "parent did not exit"

let test_gettimeofday_and_time () =
  let b = Builder.create () in
  mov_imm b Reg.RDI 0x60_0000L;
  mov_imm b Reg.RSI 0L;
  syscall b Abi.sys_gettimeofday;
  Builder.ins b (Load (W64, Reg.RDI, mem_abs 0x60_0000L));
  Builder.ins b (Alu_ri (Sub, Reg.RDI, 1_600_000_000L));
  syscall b Abi.sys_exit_group;
  let image = Tutil.image_of ~data_section:(0x60_0000L, 4096) b in
  let machine, _ = Tutil.run_image image in
  match (Elfie_machine.Machine.thread machine 0).Elfie_machine.Machine.state with
  | Elfie_machine.Machine.Exited secs ->
      Alcotest.(check bool) "epoch-ish" true (secs >= 0 && secs < 10)
  | _ -> Alcotest.fail "did not exit"

(* Copy-out to a wild pointer fails with EFAULT and creates no memory:
   [read] from a file and [gettimeofday] into an unmapped address each
   return -14, and the page stays unmapped. *)
let test_copy_out_efault () =
  let wild = 0x7000_0000L in
  let run emit =
    let b = Builder.create () in
    let path = Builder.new_label b in
    emit b path;
    (* exit_group(-rax), i.e. the errno *)
    Builder.ins b (Mov_rr (Reg.RDI, Reg.RAX));
    Builder.ins b (Neg Reg.RDI);
    syscall b Abi.sys_exit_group;
    Builder.bind b path;
    Builder.raw b (Bytes.of_string "in.txt\000");
    let machine, _ =
      Tutil.run_image ~fs_init:(fun fs -> Fs.add_file fs ~path:"/in.txt" "abcdefgh")
        (Tutil.image_of b)
    in
    (match (Elfie_machine.Machine.thread machine 0).Elfie_machine.Machine.state with
    | Elfie_machine.Machine.Exited code -> Alcotest.(check int) "EFAULT" Abi.efault code
    | _ -> Alcotest.fail "did not exit");
    Alcotest.(check bool) "still unmapped" false
      (Elfie_machine.Addr_space.is_mapped (Elfie_machine.Machine.mem machine) wild)
  in
  run (fun b path ->
      Builder.mov_label b Reg.RDI path;
      mov_imm b Reg.RSI 0L;
      mov_imm b Reg.RDX 0L;
      syscall b Abi.sys_open;
      Builder.ins b (Mov_rr (Reg.RDI, Reg.RAX));
      mov_imm b Reg.RSI wild;
      mov_imm b Reg.RDX 5L;
      syscall b Abi.sys_read);
  run (fun b _ ->
      mov_imm b Reg.RDI wild;
      mov_imm b Reg.RSI 0L;
      syscall b Abi.sys_gettimeofday)

let test_dup2_redirect () =
  (* open a file, dup2 it onto fd 9, write through fd 9. *)
  let b = Builder.create () in
  let path = Builder.new_label b in
  Builder.mov_label b Reg.RDI path;
  mov_imm b Reg.RSI (Int64.of_int Abi.o_creat);
  mov_imm b Reg.RDX 0L;
  syscall b Abi.sys_open;
  Builder.ins b (Mov_rr (Reg.RDI, Reg.RAX));
  mov_imm b Reg.RSI 9L;
  syscall b Abi.sys_dup2;
  mov_imm b Reg.RDI 9L;
  Builder.mov_label b Reg.RSI path;
  mov_imm b Reg.RDX 3L;
  syscall b Abi.sys_write;
  mov_imm b Reg.RDI 0L;
  syscall b Abi.sys_exit_group;
  Builder.bind b path;
  Builder.raw b (Bytes.of_string "log\000");
  let _, kernel = Tutil.run_image (Tutil.image_of b) in
  Alcotest.(check (option string)) "written via dup2" (Some "log")
    (Fs.read_file (Vkernel.fs kernel) "/log")

let test_recorder_captures () =
  let image = Tutil.image_of ~data_section:(0x60_0000L, 4096) (file_program ()) in
  let machine =
    Elfie_machine.Machine.create
      (Elfie_machine.Machine.Free { seed = 1L; quantum_min = 50; quantum_max = 50 })
  in
  let fs = Fs.create () in
  Fs.add_file fs ~path:"/in.txt" "abcdefgh";
  let kernel = Vkernel.create fs in
  Vkernel.install kernel machine;
  let records = ref [] in
  Vkernel.set_recorder kernel (Some (fun r -> records := r :: !records));
  let _ = Loader.load kernel machine image ~argv:[ "t" ] ~env:[] in
  Elfie_machine.Machine.run ~max_ins:100_000L machine;
  let records = List.rev !records in
  let opens = List.filter (fun r -> r.Vkernel.rec_nr = Abi.sys_open) records in
  Alcotest.(check int) "two opens" 2 (List.length opens);
  Alcotest.(check (option string)) "path decoded" (Some "/in.txt")
    (List.hd opens).Vkernel.rec_path;
  let reads = List.filter (fun r -> r.Vkernel.rec_nr = Abi.sys_read) records in
  (match reads with
  | first :: _ ->
      Alcotest.check Tutil.i64 "ret" 5L first.Vkernel.rec_ret;
      Alcotest.(check string) "kernel write payload" "abcde"
        (snd (List.hd first.Vkernel.rec_writes))
  | [] -> Alcotest.fail "no reads recorded");
  Alcotest.(check bool) "reexec flag on brk-like" true
    (Abi.reexecute_on_replay Abi.sys_brk);
  Alcotest.(check bool) "no reexec on read" false
    (Abi.reexecute_on_replay Abi.sys_read)

let test_lseek_whence () =
  (* lseek from END and CUR, verified via the returned offsets. *)
  let b = Builder.create () in
  let path = Builder.new_label b in
  Builder.mov_label b Reg.RDI path;
  mov_imm b Reg.RSI 0L;
  mov_imm b Reg.RDX 0L;
  syscall b Abi.sys_open;
  Builder.ins b (Mov_rr (Reg.R12, Reg.RAX));
  (* lseek(fd, -3, SEEK_END) -> 5 *)
  Builder.ins b (Mov_rr (Reg.RDI, Reg.R12));
  mov_imm b Reg.RSI (-3L);
  mov_imm b Reg.RDX (Int64.of_int Abi.seek_end);
  syscall b Abi.sys_lseek;
  Builder.ins b (Mov_rr (Reg.RBX, Reg.RAX));
  (* lseek(fd, 2, SEEK_CUR) -> 7 *)
  Builder.ins b (Mov_rr (Reg.RDI, Reg.R12));
  mov_imm b Reg.RSI 2L;
  mov_imm b Reg.RDX (Int64.of_int Abi.seek_cur);
  syscall b Abi.sys_lseek;
  (* exit(first*10 + second) = 57 *)
  Builder.ins b (Mov_rr (Reg.RDI, Reg.RBX));
  Builder.ins b (Alu_rr (Imul, Reg.RDI, Reg.RDI)) |> ignore;
  (* recompute simply: rdi = rbx*10 + rax *)
  Builder.ins b (Mov_rr (Reg.RDI, Reg.RBX));
  mov_imm b Reg.RDX 10L;
  Builder.ins b (Alu_rr (Imul, Reg.RDI, Reg.RDX));
  Builder.ins b (Alu_rr (Add, Reg.RDI, Reg.RAX));
  syscall b Abi.sys_exit_group;
  Builder.bind b path;
  Builder.raw b (Bytes.of_string "f\000");
  let machine, _ =
    Tutil.run_image ~fs_init:(fun fs -> Fs.add_file fs ~path:"/f" "12345678")
      (Tutil.image_of b)
  in
  match (Elfie_machine.Machine.thread machine 0).Elfie_machine.Machine.state with
  | Elfie_machine.Machine.Exited 57 -> ()
  | Elfie_machine.Machine.Exited n -> Alcotest.failf "got %d, wanted 57" n
  | _ -> Alcotest.fail "did not exit"

let test_open_trunc () =
  let b = Builder.create () in
  let path = Builder.new_label b in
  Builder.mov_label b Reg.RDI path;
  mov_imm b Reg.RSI (Int64.of_int (Abi.o_creat lor Abi.o_trunc));
  mov_imm b Reg.RDX 0L;
  syscall b Abi.sys_open;
  mov_imm b Reg.RDI 0L;
  syscall b Abi.sys_exit_group;
  Builder.bind b path;
  Builder.raw b (Bytes.of_string "big\000");
  let _, kernel =
    Tutil.run_image ~fs_init:(fun fs -> Fs.add_file fs ~path:"/big" "contents")
      (Tutil.image_of b)
  in
  Alcotest.(check (option string)) "truncated" (Some "")
    (Fs.read_file (Vkernel.fs kernel) "/big")

let test_getrandom_seeded () =
  let prog () =
    let b = Builder.create () in
    mov_imm b Reg.RDI 0x60_0000L;
    mov_imm b Reg.RSI 8L;
    mov_imm b Reg.RDX 0L;
    syscall b Abi.sys_getrandom;
    Builder.ins b (Load (W64, Reg.RDI, mem_abs 0x60_0000L));
    Builder.ins b (Alu_ri (And, Reg.RDI, 0x7fL));
    syscall b Abi.sys_exit_group;
    Tutil.image_of ~data_section:(0x60_0000L, 4096) b
  in
  let status seed =
    let machine =
      Elfie_machine.Machine.create
        (Elfie_machine.Machine.Free { seed = 1L; quantum_min = 10; quantum_max = 10 })
    in
    let kernel = Vkernel.create ~config:{ Vkernel.default_config with seed } (Fs.create ()) in
    Vkernel.install kernel machine;
    let _ = Loader.load kernel machine (prog ()) ~argv:[ "t" ] ~env:[] in
    Elfie_machine.Machine.run machine;
    match (Elfie_machine.Machine.thread machine 0).Elfie_machine.Machine.state with
    | Elfie_machine.Machine.Exited n -> n
    | _ -> -1
  in
  Alcotest.(check int) "same seed, same bytes" (status 5L) (status 5L);
  Alcotest.(check bool) "exit code plausible" true (status 5L >= 0)

(* --- loader ----------------------------------------------------------------- *)

let test_loader_stack_contents () =
  (* argc at rsp, argv[0] string readable. *)
  let b = Builder.create () in
  Builder.ins b (Load (W64, Reg.RDI, mem_base Reg.RSP)) (* argc *);
  syscall b Abi.sys_exit_group;
  let machine, _ = Tutil.run_image (Tutil.image_of b) in
  match (Elfie_machine.Machine.thread machine 0).Elfie_machine.Machine.state with
  | Elfie_machine.Machine.Exited 1 -> ()
  | _ -> Alcotest.fail "argc not 1"

let test_loader_randomization_bounds () =
  let tops = ref [] in
  for seed = 1 to 20 do
    let machine =
      Elfie_machine.Machine.create
        (Elfie_machine.Machine.Free { seed = 1L; quantum_min = 10; quantum_max = 10 })
    in
    let kernel =
      Vkernel.create
        ~config:{ Vkernel.default_config with seed = Int64.of_int seed }
        (Fs.create ())
    in
    Vkernel.install kernel machine;
    let _, layout =
      Loader.load kernel machine (Tutil.image_of (Tutil.exit_program 0))
        ~argv:[ "t" ] ~env:[]
    in
    tops := layout.Loader.stack_top :: !tops
  done;
  let distinct = List.sort_uniq compare !tops in
  Alcotest.(check bool) "randomized" true (List.length distinct > 5);
  List.iter
    (fun t ->
      Alcotest.(check bool) "within window" true
        (Int64.sub 0x7fff_ffff_f000L t <= Int64.of_int (256 * 4096)))
    !tops

let test_loader_rejects_object () =
  let machine =
    Elfie_machine.Machine.create
      (Elfie_machine.Machine.Free { seed = 1L; quantum_min = 10; quantum_max = 10 })
  in
  let kernel = Vkernel.create (Fs.create ()) in
  Vkernel.install kernel machine;
  let image = { (Tutil.image_of (Tutil.exit_program 0)) with Elfie_elf.Image.exec = false } in
  Alcotest.check_raises "not executable"
    (Loader.Exec_failed "not an executable image") (fun () ->
      ignore (Loader.load kernel machine image ~argv:[] ~env:[]))

let test_loader_stack_collision () =
  (* An image occupying the whole stack window forces the fatal case. *)
  let machine =
    Elfie_machine.Machine.create
      (Elfie_machine.Machine.Free { seed = 1L; quantum_min = 10; quantum_max = 10 })
  in
  let kernel = Vkernel.create (Fs.create ()) in
  Vkernel.install kernel machine;
  let blocker =
    Elfie_elf.Image.section ~writable:true ~name:".blocker"
      ~addr:(Int64.sub 0x7fff_ffff_f000L (Int64.of_int (600 * 4096)))
      (Bytes.make (600 * 4096) '\000')
  in
  let base_image = Tutil.image_of (Tutil.exit_program 0) in
  let image =
    { base_image with Elfie_elf.Image.sections = blocker :: base_image.sections }
  in
  (try
     ignore (Loader.load kernel machine image ~argv:[ "t" ] ~env:[]);
     Alcotest.fail "expected stack collision"
   with Loader.Stack_collision { reserved; needed; stack_top = _ } ->
     Alcotest.(check bool) "fewer pages than needed" true (reserved < needed));
  ()

let suite =
  [
    Alcotest.test_case "fs normalize" `Quick test_fs_normalize;
    Alcotest.test_case "fs read/write at" `Quick test_fs_read_write_at;
    Alcotest.test_case "fs copy isolation" `Quick test_fs_copy_isolated;
    Alcotest.test_case "file syscalls end-to-end" `Quick test_file_syscalls;
    Alcotest.test_case "ENOENT and EBADF" `Quick test_enoent_and_ebadf;
    Alcotest.test_case "brk extends heap" `Quick test_brk_extends_heap;
    Alcotest.test_case "mmap/munmap" `Quick test_mmap_munmap;
    Alcotest.test_case "clone and gettid" `Quick test_clone_and_gettid;
    Alcotest.test_case "gettimeofday epoch" `Quick test_gettimeofday_and_time;
    Alcotest.test_case "copy-out to unmapped memory: EFAULT" `Quick
      test_copy_out_efault;
    Alcotest.test_case "dup2 redirect" `Quick test_dup2_redirect;
    Alcotest.test_case "syscall recorder" `Quick test_recorder_captures;
    Alcotest.test_case "lseek whence" `Quick test_lseek_whence;
    Alcotest.test_case "open O_TRUNC" `Quick test_open_trunc;
    Alcotest.test_case "getrandom seeded" `Quick test_getrandom_seeded;
    Alcotest.test_case "loader stack argc" `Quick test_loader_stack_contents;
    Alcotest.test_case "loader randomization" `Quick test_loader_randomization_bounds;
    Alcotest.test_case "loader rejects object" `Quick test_loader_rejects_object;
    Alcotest.test_case "loader stack collision" `Quick test_loader_stack_collision;
  ]
