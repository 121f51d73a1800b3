open Elfie_pinball
open Elfie_kernel

type t = {
  files : (string * string) list;
  fd_files : (int * string) list;
  brk_start : int64;
  brk_end : int64;
}

type fd_state = { proxy : string; mutable pos : int; in_region : bool }

let analyze (pb : Pinball.t) =
  let fd_states : (int, fd_state) Hashtbl.t = Hashtbl.create 8 in
  let chunks : (string, (int * string) list ref) Hashtbl.t = Hashtbl.create 8 in
  let fd_files = ref [] in
  let brk_end = ref pb.brk in
  let ensure_file proxy =
    if not (Hashtbl.mem chunks proxy) then Hashtbl.replace chunks proxy (ref [])
  in
  let lookup_fd fd =
    match Hashtbl.find_opt fd_states fd with
    | Some st -> Some st
    | None ->
        if fd <= 2 then None
        else begin
          (* Descriptor opened before the region: FD_n proxy. *)
          let proxy = Printf.sprintf "FD_%d" fd in
          let st = { proxy; pos = 0; in_region = false } in
          Hashtbl.replace fd_states fd st;
          ensure_file proxy;
          fd_files := (fd, proxy) :: !fd_files;
          Some st
        end
  in
  let entry e =
    let nr = e.Pinball.sys_nr in
    let ret = e.sys_ret in
    let arg i = e.sys_args.(i) in
    if nr = Abi.sys_open && ret >= 0L then begin
      let proxy = Option.value ~default:"?" e.sys_path in
      Hashtbl.replace fd_states (Int64.to_int ret) { proxy; pos = 0; in_region = true };
      ensure_file proxy
    end
    else if nr = Abi.sys_close then Hashtbl.remove fd_states (Int64.to_int (arg 0))
    else if nr = Abi.sys_read && ret > 0L then (
      match lookup_fd (Int64.to_int (arg 0)) with
      | None -> ()
      | Some st ->
          let data = String.concat "" (List.map snd e.sys_writes) in
          let lst = Hashtbl.find chunks st.proxy in
          lst := (st.pos, data) :: !lst;
          st.pos <- st.pos + Int64.to_int ret)
    else if nr = Abi.sys_write && ret > 0L then (
      match lookup_fd (Int64.to_int (arg 0)) with
      | None -> ()
      | Some st -> st.pos <- st.pos + Int64.to_int ret)
    else if nr = Abi.sys_lseek && ret >= 0L then (
      match Hashtbl.find_opt fd_states (Int64.to_int (arg 0)) with
      | Some st -> st.pos <- Int64.to_int ret
      | None -> ())
    else if (nr = Abi.sys_dup || nr = Abi.sys_dup2) && ret >= 0L then (
      match Hashtbl.find_opt fd_states (Int64.to_int (arg 0)) with
      | Some st -> Hashtbl.replace fd_states (Int64.to_int ret) st
      | None -> ())
    else if nr = Abi.sys_brk && ret > 0L then brk_end := ret
  in
  Array.iter (fun entries -> List.iter entry entries) pb.injections;
  let files =
    Hashtbl.fold
      (fun proxy lst acc ->
        let pieces = List.rev !lst in
        let size = List.fold_left (fun m (pos, d) -> max m (pos + String.length d)) 0 pieces in
        let buf = Bytes.make size '\000' in
        List.iter (fun (pos, d) -> Bytes.blit_string d 0 buf pos (String.length d)) pieces;
        (proxy, Bytes.to_string buf) :: acc)
      chunks []
    |> List.sort compare
  in
  { files; fd_files = List.sort compare !fd_files; brk_start = pb.brk; brk_end = !brk_end }

let install t fs ~workdir =
  List.iter
    (fun (name, content) ->
      let path =
        if String.length name > 0 && name.[0] = '/' then name
        else Fs.normalize ~cwd:workdir name
      in
      Fs.add_file fs ~path content)
    t.files

let to_files t =
  ("BRK.log", Printf.sprintf "0x%Lx 0x%Lx\n" t.brk_start t.brk_end) :: t.files

let of_files ?(artifact = "<sysstate>") files =
  let brk_art = Filename.concat artifact "BRK.log" in
  let brk_start, brk_end =
    match List.assoc_opt "BRK.log" files with
    | Some s -> (
        match Scanf.sscanf s "0x%Lx 0x%Lx" (fun a b -> (a, b)) with
        | v -> v
        | exception (Scanf.Scan_failure _ | End_of_file | Failure _) ->
            Elfie_util.Diag.fail ~artifact:brk_art Elfie_util.Diag.Malformed
              "BRK.log does not contain two hex words (got %S)"
              (String.sub s 0 (min 32 (String.length s))))
    | None ->
        Elfie_util.Diag.fail ~artifact:brk_art Elfie_util.Diag.Missing_file
          "sysstate directory %s is missing BRK.log" artifact
  in
  let files = List.filter (fun (n, _) -> n <> "BRK.log") files in
  let fd_files =
    List.filter_map
      (fun (n, _) ->
        match int_of_string_opt (String.sub n 3 (String.length n - 3)) with
        | Some fd when String.length n > 3 && String.sub n 0 3 = "FD_" -> Some (fd, n)
        | _ -> None
        | exception Invalid_argument _ -> None)
      files
  in
  { files; fd_files; brk_start; brk_end }

let encode_name name =
  String.concat "%2F" (String.split_on_char '/' name)

let decode_name name =
  let buf = Buffer.create (String.length name) in
  let n = String.length name in
  let rec go i =
    if i < n then
      if i + 3 <= n && String.sub name i 3 = "%2F" then begin
        Buffer.add_char buf '/';
        go (i + 3)
      end
      else begin
        Buffer.add_char buf name.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

let save t ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun (name, content) ->
      let oc = open_out_bin (Filename.concat dir (encode_name name)) in
      output_string oc content;
      close_out oc)
    (to_files t)

let of_files_result ?artifact files =
  Elfie_util.Diag.protect (fun () -> of_files ?artifact files)

let load_dir ~dir =
  let files =
    match Sys.readdir dir with
    | names ->
        Array.to_list names
        |> List.map (fun f ->
               let path = Filename.concat dir f in
               match
                 let ic = open_in_bin path in
                 Fun.protect
                   ~finally:(fun () -> close_in_noerr ic)
                   (fun () -> really_input_string ic (in_channel_length ic))
               with
               | s -> (decode_name f, s)
               | exception Sys_error msg ->
                   raise
                     (Elfie_util.Diag.Error
                        (Elfie_util.Diag.io_error ~artifact:path msg)))
    | exception Sys_error msg ->
        raise (Elfie_util.Diag.Error (Elfie_util.Diag.io_error ~artifact:dir msg))
  in
  of_files ~artifact:dir files

let pp fmt t =
  Format.fprintf fmt "@[<v>sysstate: brk 0x%Lx..0x%Lx@," t.brk_start t.brk_end;
  List.iter
    (fun (name, content) ->
      Format.fprintf fmt "  %s (%d bytes)@," name (String.length content))
    t.files;
  List.iter
    (fun (fd, name) -> Format.fprintf fmt "  fd %d <- %s@," fd name)
    t.fd_files;
  Format.fprintf fmt "@]"
