(* pinball2elf: convert a pinball into a stand-alone ELFie executable.

     pinball2elf -d /tmp/pbdir -n region -o region.elfie \
        --roi-start ssc:0x1234 --sysstate /tmp/pbdir/region.sysstate

   Mirrors the switches of the paper's tool: ROI markers, counter-based
   graceful exit, monitor thread (elfie_on_exit), object-only output,
   allocatable-stack mode (to reproduce the collision), and a linker
   script dump. *)

open Cmdliner

let parse_marker s =
  match String.split_on_char ':' (String.lowercase_ascii s) with
  | [ "sniper" ] -> Ok Elfie_core.Pinball2elf.Sniper
  | [ "ssc"; tag ] -> (
      match Int64.of_string_opt tag with
      | Some v -> Ok (Elfie_core.Pinball2elf.Ssc v)
      | None -> Error (`Msg ("bad ssc tag: " ^ tag)))
  | [ "simics"; n ] -> (
      match int_of_string_opt n with
      | Some v -> Ok (Elfie_core.Pinball2elf.Simics v)
      | None -> Error (`Msg ("bad simics code: " ^ n)))
  | _ -> Error (`Msg "expected sniper, ssc:TAG or simics:N")

let marker_conv =
  Arg.conv
    ( parse_marker,
      fun fmt m ->
        Format.pp_print_string fmt
          (match m with
          | Elfie_core.Pinball2elf.Sniper -> "sniper"
          | Ssc v -> Printf.sprintf "ssc:0x%Lx" v
          | Simics n -> Printf.sprintf "simics:%d" n) )

let convert dir name out marker sysstate_dir no_counters monitor object_only
    alloc_stack ldscript dump_contexts =
  let pb = Elfie_pinball.Pinball.load ~dir ~name in
  let sysstate = Option.map (fun dir -> Elfie_pin.Sysstate.load_dir ~dir) sysstate_dir in
  let options =
    {
      Elfie_core.Pinball2elf.alloc_stack_sections = alloc_stack;
      marker;
      arm_counters = not no_counters;
      sysstate;
      monitor_thread = monitor;
      object_only;
      warmup_mark = None;
      extra_on_start = None;
      extra_on_thread_start = None;
      extra_on_exit = None;
    }
  in
  let image = Elfie_core.Pinball2elf.convert ~options pb in
  let bytes = Elfie_elf.Image.write image in
  let oc = open_out_bin out in
  output_bytes oc bytes;
  close_out oc;
  Printf.printf "wrote %s (%d bytes, %d sections, %d symbols, entry 0x%Lx)\n" out
    (Bytes.length bytes)
    (List.length image.sections)
    (List.length image.symbols)
    image.entry;
  (match ldscript with
  | Some path ->
      let oc = open_out path in
      output_string oc (Elfie_core.Pinball2elf.linker_script image);
      close_out oc;
      Printf.printf "linker script written to %s\n" path
  | None -> ());
  match dump_contexts with
  | Some path ->
      let oc = open_out path in
      output_string oc (Elfie_core.Pinball2elf.context_listing pb);
      close_out oc;
      Printf.printf "thread contexts written to %s\n" path
  | None -> ()

let cmd =
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "d"; "dir" ] ~docv:"DIR" ~doc:"Pinball directory.")
  in
  let pb_name =
    Arg.(value & opt string "pinball" & info [ "n"; "name" ] ~doc:"Pinball name.")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output ELFie path.")
  in
  let marker =
    Arg.(
      value
      & opt (some marker_conv) None
      & info [ "roi-start" ] ~docv:"TYPE[:TAG]"
          ~doc:"Insert a region-of-interest marker (sniper, ssc:TAG, simics:N).")
  in
  let sysstate =
    Arg.(
      value
      & opt (some string) None
      & info [ "sysstate" ] ~docv:"DIR"
          ~doc:"Embed SYSSTATE re-opening from this pinball_sysstate directory.")
  in
  let no_counters =
    Arg.(
      value & flag
      & info [ "no-counters" ]
          ~doc:"Do not arm per-thread instruction counters (no graceful exit).")
  in
  let monitor =
    Arg.(
      value & flag
      & info [ "monitor" ] ~doc:"Create a monitor thread calling elfie_on_exit().")
  in
  let object_only =
    Arg.(
      value & flag
      & info [ "object" ] ~doc:"Emit an ET_REL object without startup code.")
  in
  let alloc_stack =
    Arg.(
      value & flag
      & info [ "alloc-stack-sections" ]
          ~doc:
            "Emit checkpointed stack pages as allocatable sections (reproduces \
             the stack-collision failure).")
  in
  let ldscript =
    Arg.(
      value
      & opt (some string) None
      & info [ "ldscript" ] ~docv:"FILE" ~doc:"Also write the linker script.")
  in
  let dump_contexts =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-contexts" ] ~docv:"FILE"
          ~doc:"Also dump initial thread contexts as an assembly listing.")
  in
  Term.(
    const convert $ dir $ pb_name $ out $ marker $ sysstate $ no_counters $ monitor
    $ object_only $ alloc_stack $ ldscript $ dump_contexts)

(* --- check ------------------------------------------------------------------ *)

let check path fault_sweep =
  let module Diag = Elfie_util.Diag in
  let bytes =
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | s -> Bytes.of_string s
    | exception Sys_error msg ->
        prerr_endline (Diag.to_string (Diag.io_error ~artifact:path msg));
        exit 1
  in
  match Elfie_elf.Image.read_result ~artifact:path bytes with
  | Error d ->
      prerr_endline (Diag.to_string d);
      exit 1
  | Ok image -> (
      if fault_sweep then begin
        let report = Elfie_check.Fault_inject.run_elf image in
        Format.printf "fault sweep: %a@." Elfie_check.Fault_inject.pp_report
          report;
        if Elfie_check.Fault_inject.crashes report <> [] then exit 1
      end;
      match Elfie_check.Validate.elf ~artifact:path image with
      | [] ->
          Printf.printf "%s: OK (%d sections, %d symbols, entry 0x%Lx)\n" path
            (List.length image.sections)
            (List.length image.symbols)
            image.entry
      | ds ->
          List.iter (fun d -> prerr_endline (Diag.to_string d)) ds;
          exit 1)

let check_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ELFIE" ~doc:"ELFie (or any ELF image) to validate.")
  in
  let fault_sweep =
    Arg.(
      value & flag
      & info [ "fault-sweep" ]
          ~doc:
            "Also corrupt the image across every fault class and verify that \
             no corruption escapes as a crash.")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"validate an ELFie image: parse + consistency checks")
    Term.(const check $ path $ fault_sweep)

let () =
  let info = Cmd.info "pinball2elf" ~doc:"convert a pinball to an ELFie executable" in
  Cli.eval (Cmd.group ~default:cmd info [ check_cmd ])
