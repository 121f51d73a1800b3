(* vgdb: an interactive (and scriptable) debugger for ELFies.

     vgdb region.elfie --sysstate dir [--script cmds.txt]

   Commands (one per line; gdb-flavoured):
     b SYMBOL | b 0xADDR      set breakpoint
     d 0xADDR                 delete breakpoint
     c                        continue
     si [N]                   step N instructions (default 1)
     rsi [N]                  reverse-step N instructions (default 1)
     rc                       reverse-continue to the previous breakpoint
     info regs [TID]          registers
     info threads             thread list
     info b                   breakpoints
     x 0xADDR [LEN]           hex dump
     dis [0xADDR] [N]         disassemble (default: current rip)
     sym 0xADDR               nearest symbol
     q                        quit *)

open Cmdliner
module Debugger = Elfie_debug.Debugger

let hex_dump bytes addr =
  Bytes.iteri
    (fun i c ->
      if i mod 16 = 0 then
        Printf.printf "%s%016Lx: " (if i = 0 then "" else "\n")
          (Int64.add addr (Int64.of_int i));
      Printf.printf "%02x " (Char.code c))
    bytes;
  print_newline ()

let show_regs dbg tid =
  let ctx = Debugger.registers dbg ~tid in
  Printf.printf "rip 0x%Lx\n" (Elfie_machine.Context.rip ctx);
  List.iter
    (fun r ->
      Printf.printf "%-4s 0x%Lx\n" (Elfie_isa.Reg.gpr_name r)
        (Elfie_machine.Context.get ctx r))
    Elfie_isa.Reg.all_gprs

let execute dbg line =
  let words =
    String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "")
  in
  match words with
  | [] -> true
  | [ "q" ] -> false
  | "b" :: [ target ] ->
      (match Int64.of_string_opt target with
      | Some addr ->
          Debugger.break_at dbg addr;
          Printf.printf "breakpoint at 0x%Lx\n" addr
      | None -> (
          match Debugger.break_symbol dbg target with
          | Ok addr -> Printf.printf "breakpoint at %s (0x%Lx)\n" target addr
          | Error e -> print_endline e));
      true
  | "d" :: [ target ] ->
      (match Int64.of_string_opt target with
      | Some addr -> Debugger.clear_at dbg addr
      | None -> print_endline "expected an address");
      true
  | [ "c" ] ->
      Format.printf "%a@." Debugger.pp_stop (Debugger.continue_ dbg);
      true
  | "si" :: rest ->
      let n = match rest with [ n ] -> int_of_string n | _ -> 1 in
      let rec go i =
        if i < n then
          match Debugger.step dbg with
          | Debugger.Step_done _ -> go (i + 1)
          | stop -> Format.printf "%a@." Debugger.pp_stop stop
      in
      go 0;
      true
  | "rsi" :: rest ->
      let n = match rest with [ n ] -> int_of_string n | _ -> 1 in
      (match Debugger.reverse_stepi ~n dbg with
      | Debugger.Step_done tid ->
          Printf.printf "icount %d (thread %d)\n" (Debugger.icount dbg) tid
      | stop -> Format.printf "%a@." Debugger.pp_stop stop);
      true
  | [ "rc" ] ->
      Format.printf "%a@." Debugger.pp_stop (Debugger.reverse_continue dbg);
      true
  | [ "info"; "regs" ] ->
      show_regs dbg 0;
      true
  | [ "info"; "regs"; tid ] ->
      show_regs dbg (int_of_string tid);
      true
  | [ "info"; "threads" ] ->
      List.iter
        (fun (tid, state, rip) ->
          let where =
            match Debugger.symbol_near dbg rip with
            | Some (name, 0L) -> Printf.sprintf " <%s>" name
            | Some (name, off) -> Printf.sprintf " <%s+%Ld>" name off
            | None -> ""
          in
          Printf.printf "thread %d: %s at 0x%Lx%s\n" tid state rip where)
        (Debugger.thread_summary dbg);
      true
  | [ "info"; "b" ] ->
      List.iter (Printf.printf "0x%Lx\n") (Debugger.breakpoints dbg);
      true
  | "x" :: addr :: rest ->
      let len = match rest with [ n ] -> int_of_string n | _ -> 64 in
      (match Int64.of_string_opt addr with
      | Some a -> (
          match Debugger.read_mem dbg a len with
          | Some bytes -> hex_dump bytes a
          | None -> print_endline "unmapped")
      | None -> print_endline "expected an address");
      true
  | "dis" :: rest ->
      let addr, count =
        match rest with
        | [ a; n ] -> (Int64.of_string a, int_of_string n)
        | [ a ] -> (Int64.of_string a, 10)
        | _ -> (Elfie_machine.Context.rip (Debugger.registers dbg ~tid:0), 10)
      in
      List.iter
        (fun (a, ins) ->
          let sym =
            match Debugger.symbol_near dbg a with
            | Some (name, 0L) -> Printf.sprintf " <%s>" name
            | _ -> ""
          in
          Printf.printf "  %8Lx%s: %s\n" a sym (Elfie_isa.Insn.to_string ins))
        (Debugger.disassemble dbg ~addr ~count);
      true
  | "sym" :: [ addr ] ->
      (match Debugger.symbol_near dbg (Int64.of_string addr) with
      | Some (name, off) -> Printf.printf "%s+%Ld\n" name off
      | None -> print_endline "no symbol");
      true
  | _ ->
      print_endline "unknown command (b/d/c/si/rsi/rc/info/x/dis/sym/q)";
      true

let main path sysstate_dir script =
  let ic = open_in_bin path in
  let image =
    Elfie_elf.Image.read (Bytes.of_string (really_input_string ic (in_channel_length ic)))
  in
  close_in ic;
  let fs_init fs =
    match sysstate_dir with
    | Some dir ->
        Elfie_pin.Sysstate.install (Elfie_pin.Sysstate.load_dir ~dir) fs
          ~workdir:"/work"
    | None -> ()
  in
  let dbg = Debugger.launch ~fs_init ~cwd:"/work" image in
  let input =
    match script with Some f -> open_in f | None -> stdin
  in
  let interactive = script = None in
  let rec repl () =
    if interactive then (print_string "(vgdb) "; flush stdout);
    match input_line input with
    | line -> if execute dbg line then repl ()
    | exception End_of_file -> ()
  in
  repl ()

let cmd =
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ELFIE" ~doc:"ELFie file.")
  in
  let sysstate =
    Arg.(
      value & opt (some string) None
      & info [ "sysstate" ] ~docv:"DIR" ~doc:"Sysstate directory.")
  in
  let script =
    Arg.(
      value & opt (some string) None
      & info [ "script" ] ~docv:"FILE" ~doc:"Run commands from a file.")
  in
  Cmd.v
    (Cmd.info "vgdb" ~doc:"debug an ELFie")
    Term.(const main $ path $ sysstate $ script)

let () = Cli.eval cmd
