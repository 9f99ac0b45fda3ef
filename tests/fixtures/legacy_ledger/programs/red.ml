global a[64];

fn main() {
    let s = 0;
    for i in 0..64 {
        a[i] = i;
    }
    for i in 0..64 {
        s += a[i];
    }
    return s;
}
