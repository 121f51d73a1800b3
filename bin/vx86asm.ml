(* vx86asm: assemble a VX86 .s file into an ELF executable, optionally
   run it, or disassemble an existing image.

     vx86asm build prog.s -o prog.elf [--base 0x400000]
     vx86asm run prog.s [--max-ins N]
     vx86asm objdump prog.elf *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let assemble_file path base =
  match Elfie_asm.Asm.assemble ~base (read_file path) with
  | Ok prog -> prog
  | Error e ->
      Format.eprintf "%s: %a@." path Elfie_asm.Asm.pp_error e;
      exit 1

let image_of_program base (prog : Elfie_isa.Builder.program) =
  {
    Elfie_elf.Image.exec = true;
    entry = base;
    sections =
      [ Elfie_elf.Image.section ~executable:true ~writable:true ~name:".text"
          ~addr:base prog.code ];
    symbols =
      List.map
        (fun (name, value) -> { Elfie_elf.Image.sym_name = name; value; func = true })
        prog.symbols;
  }

let base_arg =
  Arg.(value & opt int64 0x40_0000L & info [ "base" ] ~doc:"Load address.")

let src_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Source file.")

let build src out base =
  let prog = assemble_file src base in
  let oc = open_out_bin out in
  output_bytes oc (Elfie_elf.Image.write (image_of_program base prog));
  close_out oc;
  Printf.printf "wrote %s (%d code bytes)\n" out (Bytes.length prog.code)

let build_cmd =
  let out =
    Arg.(
      required & opt (some string) None & info [ "o" ] ~docv:"OUT" ~doc:"Output ELF.")
  in
  Cmd.v
    (Cmd.info "build" ~doc:"assemble to an ELF executable")
    Term.(const build $ src_arg $ out $ base_arg)

let run src base max_ins =
  let prog = assemble_file src base in
  let machine =
    Elfie_machine.Machine.create
      (Elfie_machine.Machine.Free { seed = 1L; quantum_min = 100; quantum_max = 100 })
  in
  let kernel = Elfie_kernel.Vkernel.create (Elfie_kernel.Fs.create ()) in
  Elfie_kernel.Vkernel.install kernel machine;
  let _ =
    Elfie_kernel.Loader.load kernel machine (image_of_program base prog)
      ~argv:[ src ] ~env:[]
  in
  Elfie_machine.Machine.run ~max_ins machine;
  print_string (Elfie_kernel.Vkernel.stdout_contents kernel);
  List.iter
    (fun th ->
      Printf.printf "thread %d: %s after %Ld instructions (%Ld cycles)\n"
        th.Elfie_machine.Machine.tid
        (match th.Elfie_machine.Machine.state with
        | Elfie_machine.Machine.Exited n -> Printf.sprintf "exit %d" n
        | Faulted f -> Format.asprintf "%a" Elfie_machine.Machine.pp_fault f
        | Runnable -> "still runnable (hit --max-ins)")
        (Int64.of_int th.Elfie_machine.Machine.retired)
        (Int64.of_int th.Elfie_machine.Machine.cycles))
    (Elfie_machine.Machine.threads machine)

let run_cmd =
  let max_ins =
    Arg.(value & opt int64 10_000_000L & info [ "max-ins" ] ~doc:"Instruction cap.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"assemble and execute on the Vkernel machine")
    Term.(const run $ src_arg $ base_arg $ max_ins)

let objdump path =
  let image = Elfie_elf.Image.read ~artifact:path (Bytes.of_string (read_file path)) in
  Format.printf "%a@." Elfie_elf.Image.pp image;
  List.iter
    (fun (s : Elfie_elf.Image.section) ->
      if s.executable then begin
        Printf.printf "\nDisassembly of %s:\n" s.name;
        List.iter
          (fun (off, ins) ->
            Printf.printf "  %8Lx: %s\n"
              (Int64.add s.addr (Int64.of_int off))
              (Elfie_asm.Asm.print_instruction ins))
          (Elfie_isa.Codec.disassemble s.data ~off:0 ~count:10_000)
      end)
    image.sections

let objdump_cmd =
  Cmd.v
    (Cmd.info "objdump" ~doc:"disassemble an ELF image")
    Term.(const objdump $ src_arg)

let () =
  let doc = "VX86 assembler and flat-image tools" in
  Cli.eval (Cmd.group (Cmd.info "vx86asm" ~doc) [ build_cmd; run_cmd; objdump_cmd ])
