(* Tests for the CRIU-style whole-process checkpoint baseline, and the
   paper's pinball/ELFie contrasts made executable. *)

module Criu = Elfie_criu.Criu
module Machine = Elfie_machine.Machine
module Vkernel = Elfie_kernel.Vkernel

(* Recreate a checkpointed process, ready to continue, against the given
   filesystem: the check that a checkpoint is complete. *)
let restore ?(seed = 23L) (cp : Criu.t) fs =
  let machine =
    Machine.create (Machine.Free { seed; quantum_min = 50; quantum_max = 200 })
  in
  List.iter
    (fun (addr, data) ->
      Elfie_machine.Addr_space.store (Machine.mem machine) addr data)
    cp.pages;
  let kernel =
    Vkernel.create
      ~config:{ Vkernel.default_config with seed; initial_cwd = cp.cwd }
      fs
  in
  Vkernel.install kernel machine;
  Vkernel.force_brk kernel cp.brk;
  List.iter (fun (fd, state) -> Vkernel.set_fd kernel fd state) cp.fds;
  Array.iter
    (fun ctx ->
      ignore (Machine.add_thread machine (Elfie_machine.Context.copy ctx)))
    cp.contexts;
  (machine, kernel)

let run_to rs icount =
  let machine, kernel = Elfie_pin.Run.instantiate rs in
  Elfie_machine.Machine.run ~max_ins:icount machine;
  (machine, kernel)

let test_checkpoint_restore_continues () =
  (* Run half-way, checkpoint, restore, continue: the continuation must
     finish the program exactly as the uninterrupted run does. *)
  let rs = Tutil.tiny_run_spec ~file_io:true "criu" in
  let full = Elfie_pin.Run.native rs in
  let machine, kernel = run_to rs 40_000L in
  let cp = Criu.checkpoint machine kernel in
  (* Restore against a fresh copy of the filesystem (same machine). *)
  let fs = Elfie_kernel.Fs.copy (Elfie_kernel.Vkernel.fs kernel) in
  let machine', kernel' = restore cp fs in
  Elfie_machine.Machine.run machine';
  Alcotest.(check bool) "clean finish" true
    (Elfie_machine.Machine.all_exited_cleanly machine');
  Alcotest.(check string) "produces the program output" "done\n"
    (Elfie_kernel.Vkernel.stdout_contents kernel');
  Alcotest.check Tutil.i64 "instruction count completes the run"
    full.Elfie_pin.Run.retired
    (Int64.add 40_000L (Elfie_machine.Machine.total_retired machine'))

let test_checkpoint_restores_fd_positions () =
  (* The descriptor table survives exactly — the capability ELFies only
     approximate via SYSSTATE. *)
  let rs = Tutil.tiny_run_spec ~file_io:true "criufd" in
  let machine, kernel = run_to rs 40_000L in
  let cp = Criu.checkpoint machine kernel in
  let file_fds =
    List.filter_map
      (fun (fd, st) ->
        match st with
        | Elfie_kernel.Vkernel.Fd_file { path; pos } -> Some (fd, path, pos)
        | Elfie_kernel.Vkernel.Fd_console -> None)
      cp.Criu.fds
  in
  match file_fds with
  | [ (3, "/input.dat", pos) ] ->
      Alcotest.(check bool) "mid-file position" true (pos > 0)
  | _ -> Alcotest.fail "expected fd 3 open on /input.dat"

let test_restore_is_repeatable () =
  let rs = Tutil.tiny_run_spec "criurep" in
  let machine, kernel = run_to rs 30_000L in
  let cp = Criu.checkpoint machine kernel in
  let finish seed =
    let m, _ = restore ~seed cp (Elfie_kernel.Fs.create ()) in
    Elfie_machine.Machine.run m;
    Elfie_machine.Machine.total_retired m
  in
  (* ST continuation is deterministic regardless of seed. *)
  Alcotest.check Tutil.i64 "repeatable" (finish 1L) (finish 2L)

let test_mt_checkpoint () =
  let rs = Tutil.tiny_run_spec ~threads:4 "criumt" in
  let machine, kernel = run_to rs 100_000L in
  let cp = Criu.checkpoint machine kernel in
  Alcotest.(check int) "all threads captured" 4 (Array.length cp.Criu.contexts);
  let m, _ = restore cp (Elfie_kernel.Fs.create ()) in
  Elfie_machine.Machine.run m;
  Alcotest.(check bool) "MT continuation completes" true
    (Elfie_machine.Machine.all_exited_cleanly m)

let test_checkpoint_unperturbed_by_parent_writes () =
  (* The checkpoint aliases the process's pages copy-on-write instead of
     deep-copying them: letting the checkpointed process keep running
     (dirtying its memory) must not change what the checkpoint restores. *)
  let rs = Tutil.tiny_run_spec "criucow" in
  let machine, kernel = run_to rs 30_000L in
  let cp = Criu.checkpoint machine kernel in
  let reference = Criu.to_files cp in
  (* Continue the parent well past the checkpoint — tens of thousands of
     stores land in pages the checkpoint references. *)
  Elfie_machine.Machine.run ~max_ins:60_000L machine;
  Alcotest.(check bool) "parent kept running" true
    (Elfie_machine.Machine.total_retired machine > 30_000L);
  Alcotest.(check bool) "checkpoint unperturbed by post-checkpoint writes" true
    (Criu.to_files cp = reference);
  (* And it still restores into a run that completes cleanly. *)
  let m, _ = restore cp (Elfie_kernel.Fs.create ()) in
  Elfie_machine.Machine.run m;
  Alcotest.(check bool) "restored continuation completes" true
    (Elfie_machine.Machine.all_exited_cleanly m)

let test_contrast_with_elfie_sizes () =
  (* The comparison the paper tabulates: both artifacts exist here, so
     measure them. The checkpoint holds the full process image; the
     ELFie additionally carries startup code and the non-allocatable
     stack copies, and it is directly executable. *)
  let rs = Tutil.tiny_run_spec "criusz" in
  let machine, kernel = run_to rs 40_000L in
  let cp = Criu.checkpoint machine kernel in
  let pb = Tutil.tiny_pinball ~start:40_000L ~length:30_000L "criusz" in
  let elfie_bytes =
    Bytes.length (Elfie_elf.Image.write (Elfie_core.Pinball2elf.convert pb))
  in
  Alcotest.(check bool) "checkpoint is substantial" true (Criu.image_bytes cp > 100_000);
  Alcotest.(check bool) "elfie is a real file too" true (elfie_bytes > 100_000);
  (* And the structural contrast: the checkpoint cannot be loaded as an
     executable. *)
  match Elfie_elf.Image.read (Bytes.of_string (List.assoc "image" (Criu.to_files cp))) with
  | _ -> Alcotest.fail "a checkpoint must not parse as ELF"
  | exception Elfie_util.Diag.Error _ -> ()

let suite =
  [
    Alcotest.test_case "checkpoint/restore continues" `Quick
      test_checkpoint_restore_continues;
    Alcotest.test_case "fd positions restored" `Quick
      test_checkpoint_restores_fd_positions;
    Alcotest.test_case "restore repeatable (ST)" `Quick test_restore_is_repeatable;
    Alcotest.test_case "MT checkpoint" `Quick test_mt_checkpoint;
    Alcotest.test_case "checkpoint unperturbed by parent writes" `Quick
      test_checkpoint_unperturbed_by_parent_writes;
    Alcotest.test_case "contrast with ELFie" `Quick test_contrast_with_elfie_sizes;
  ]
