(* Readings from /proc and the filesystem, taken at the same boundaries
   as the spans. *)

(* /proc files report a length of 0, so read them line by line. *)
let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
      go [])

(* Peak resident set ([VmHWM]) of a live process, in MB. *)
let vm_hwm_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  let kb =
    List.find_map
      (fun l ->
        if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> Some kb)
        else None)
      (read_lines path)
  in
  match kb with Some kb -> float_of_int kb /. 1024. | None -> failwith ("no VmHWM in " ^ path)

(* utime + stime of a live process in milliseconds.  /proc reports clock
   ticks of USER_HZ, which Linux fixes at 100 per second. *)
let cpu_ms pid =
  let line = List.hd (read_lines (Printf.sprintf "/proc/%d/stat" pid)) in
  (* the command name (field 2) may contain spaces: split after its ')' *)
  let rest = String.sub line (String.rindex line ')' + 2) (String.length line - String.rindex line ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* fields 14 and 15 of the full line are 12 and 13 here (0-based, state first) *)
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) *. 10.

let rec dir_bytes path =
  match Sys.is_directory path with
  | true -> Array.fold_left (fun acc f -> acc + dir_bytes (Filename.concat path f)) 0 (Sys.readdir path)
  | false -> (Unix.stat path).Unix.st_size
  | exception Sys_error _ -> 0

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir path =
  rm_rf path;
  let rec mk p =
    if not (Sys.file_exists p) then begin
      mk (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  mk path
